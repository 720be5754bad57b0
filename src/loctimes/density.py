"""Joint local-time density on a fixed range, by three independent routes.

The density of the local-time vector on the event that the chain has exactly
range R, runs from ``start`` to ``end``, is a cofactor-determinant
differential operator applied to an angular integral.  This module evaluates
it three ways:

* ``density_series`` -- expand the angular integral into its power series in
  the local times, with coefficients from the principal minors of the jump
  rates (MacMahon's master theorem), and apply the derivative operator
  analytically, monomial by monomial;
* ``density_quadrature`` -- the derivative-free form: a complex cofactor
  determinant integrated over angles with a periodic trapezoidal rule;
* ``density_finite_difference`` -- apply the derivative operator to the
  angular integral's series by Richardson-extrapolated mixed central
  differences, the stencils of both steps evaluated as one batch
  (test-only; least accurate).

Accuracy degrades when some local time drops below ~1e-8 of the horizon; the
evaluators are meant for the open simplex only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import factorial, gammainc, gammaln, ive

from .chain import Generator, RangeSpec, as_times

__all__ = [
    "DensityResult",
    "theta_integral_series",
    "density_series",
    "density_quadrature",
    "density_finite_difference",
    "local_time_density",
    "gauge_invariance_check",
    "SeriesEvaluator",
]

TABLE_LIMIT = 10_000_000
MAX_DEGREE = 80
QUADRATURE_NODE_LIMIT = 2 ** 24
FD_TOL = 1e-10  # relative tolerance of the finite differences' series


class ConvergenceError(RuntimeError):
    """Series or quadrature failed to reach the requested tolerance."""


class CapacityError(RuntimeError):
    """An enumeration exceeded its configured size limit."""


def _check_tol(tol: float):
    """A relative tolerance must lie in (0, inf): at 0, below or nan no
    degree or grid meets it, and at inf every one does."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


def _check_times(L: np.ndarray):
    """Every local time must be positive and finite: at 0 or below its log
    and derivative factor 1 / (2 l_x) are undefined, and at nan or inf no
    degree meets the stopping rule."""
    if not np.all((L > 0) & (L < np.inf)):
        raise ValueError("all local times must be positive and finite")


# ---------------------------------------------------------------------------
# the monomial table


def _covers(support: np.ndarray) -> list[tuple]:
    """The site sets S, smallest first, on which the digraph ``support``
    has a cycle cover: a permutation of S along its edges, which is a
    perfect matching of S to S.  Only for these can det(B_SS) be nonzero.
    Raises ``CapacityError`` before the scan when its 2^n - n - 1 subsets
    pass ``TABLE_LIMIT``."""
    n = len(support)
    if 2 ** n - n - 1 > TABLE_LIMIT:
        raise CapacityError(f"more than {TABLE_LIMIT} site subsets to scan on {n} sites")
    out = []
    for size in range(2, n + 1):
        for S in itertools.combinations(range(n), size):
            miss = ~support[np.ix_(S, S)]
            if not miss[linear_sum_assignment(miss)].any():
                out.append(S)
    return out


class _MonomialTable:
    """The monomials l^d of theta_B on the digraph ``support``, complete
    through degree ``max_degree``, with the triples of the recurrence that
    gives their coefficients.

    A balanced flow n on the support enters theta_B(l) as prod B_xy^n_xy /
    n_xy! times l^d, d_x the out-degree (and in-degree) of site x, so l^d
    has the coefficient a_d summed over the flows with out-degrees d, of
    degree |d| = sum_x d_x.  By MacMahon's master theorem d! a_d is the
    coefficient of x^d in 1 / det(I - diag(x) B) = 1 / sum_S c_S x^S, with
    c_S = (-1)^|S| det(B_SS) and c_{} = 1, so

        d! a_d = -sum_S c_S (d - 1_S)! a_{d - 1_S},  a_0 = 1,

    over the covers S (``_covers``), the only S where c_S can be nonzero.
    So the monomials of degree k are the d + 1_S over the covers S and the
    monomials d of degree k - |S|, and each such pair makes a triple
    (S, d, d + 1_S) of the recurrence.  Layer k keeps its monomials,
    ``powers[start[k]:start[k + 1]]``, and per triple the index of d + 1_S
    among them, ``targets[k]``, the triples ordered by cover size, cover
    and d: the d of a cover of size s run through all of layer k - s, in
    order.

    A layer is built from packed integer keys of d.  Every cover through x
    has at least two sites, so d_x <= |d| / 2, and with that many bits per
    site adding keys adds the d; sorting the candidate keys deduplicates
    the layer.  ``d_fact`` holds d! per monomial, in the order of ``powers``.

    The coefficients depend on the rates B alone, so the table also keeps
    those of the last B it served: ``coef`` is (key, list), the key B's
    dtype and bytes and the list d! a_d per degree, as far as any series
    on B has needed them.  The grid batch, the point evaluations and the
    finite differences of one chain so run one recurrence between them;
    a series on other rates replaces the list.

    The table keeps, too, what a batch's pass needs beyond the rates:
    ``splits`` holds per window of degrees and per tuple of derivative
    site sets the folded split of its monomials (``split``), built the
    first time a batch's cost rule takes it (``_Series._split``) and kept
    while it is among the last ``SPLITS_KEPT`` used; a series then
    scatters its coefficients into the split's cells per call.
    """

    def __init__(self, support: np.ndarray):
        covers = _covers(support)
        self.n = len(support)
        # per cover size s, the covers of that size as a (covers, s) array of sites
        self.covers = {s: np.array([S for S in covers if len(S) == s], dtype=np.intp)
                       for s in sorted({len(S) for S in covers})}
        self.max_degree = 0
        self.powers = np.zeros((1, self.n))
        self.d_fact = np.ones(1)  # d! per monomial
        self.start = [0, 1]
        self.targets = [np.zeros(0, dtype=np.int32)]
        self.kept = 1  # monomials plus triples
        self.coef = (None, [])
        self.splits = {}  # (lo, hi, site sets) -> _Split, last used last

    def size(self, K: int) -> int:
        """The number of monomials of degree <= K."""
        return self.start[min(K, self.max_degree) + 1]

    def extend(self, max_degree: int):
        """Append the layers through ``max_degree``.  Raises
        ``CapacityError`` when a layer would take the monomials and triples
        kept past ``TABLE_LIMIT``, tested on its triples before the layer
        is built and on its monomials after; the layers below it are kept."""
        if max_degree <= self.max_degree:
            return
        bits = max(1, (max_degree // 2).bit_length())
        per_word = 63 // bits
        sites = np.arange(self.n)
        word, shift = sites // per_word, bits * (sites % per_word)
        words = word[-1] + 1
        pack = np.zeros((self.n, words), dtype=np.int64)
        pack[sites, word] = np.left_shift(1, shift)
        keys = {k: self.powers[self.start[k] : self.start[k + 1]].astype(np.int64) @ pack
                for k in range(max(0, self.max_degree + 1 - self.n), self.max_degree + 1)}

        def check(count: int, k: int):
            if self.kept + count > TABLE_LIMIT:
                raise CapacityError(
                    f"more than {TABLE_LIMIT} monomials and triples at degree <= {k}")

        new = []
        try:
            for k in range(self.max_degree + 1, max_degree + 1):
                steps = [(pack[S].sum(axis=1), keys[k - s])
                         for s, S in self.covers.items() if s <= k]
                triples = sum(len(cover) * len(prev) for cover, prev in steps)
                check(triples, k)
                candidates = [(cover[:, None] + prev).reshape(-1, words) for cover, prev in steps]
                layer, target = _distinct(np.concatenate([np.zeros((0, words), np.int64),
                                                          *candidates]))
                check(triples + len(layer), k)
                keys[k] = layer
                new.append(((layer[:, word] >> shift) & ((1 << bits) - 1)).astype(float))
                self.targets.append(target.astype(np.int32))
                self.start.append(self.start[-1] + len(layer))
                self.kept += triples + len(layer)
                self.max_degree = k
        finally:
            self.powers = np.concatenate([self.powers, *new])
            self.d_fact = np.concatenate([self.d_fact,
                                          *(np.prod(factorial(layer), axis=1) for layer in new)])

    def split(self, lo: int, hi: int, Qs: tuple) -> _Split | None:
        """The monomials of degrees lo+1 .. hi, folded with the derivative
        site sets ``Qs`` and split into a head, the first n // 2 sites, and
        a tail; None where a half's key would pass one int64 word or the
        |head| x |tail| coefficients ``PASS_BLOCK``.  Built once per (lo,
        hi, Qs) and kept in ``splits``, which holds the last
        ``SPLITS_KEPT`` used (a None as None, without its arrays).

        d/dl_Q l^d = prod_{x in Q} d_x l^(d - 1_Q), zero unless d_x >= 1 on
        Q, and l^e = l_head^e_head l_tail^e_tail.  Each half of d is a
        packed key, d_x <= hi / 2 (a cover through x has two sites) in
        ``bits`` bits per site, so the key of d - 1_Q is the key of d less
        that of 1_Q.  The distinct keys, sorted, give the head and tail
        exponents, and each kept (monomial, term) the cell (head index,
        tail index) of its fold."""
        r = self.n // 2
        bits = max(1, (hi // 2).bit_length())
        if (self.n - r) * bits > 63:
            return None
        key = (lo, hi, Qs)
        if key in self.splits:
            self.splits[key] = self.splits.pop(key)  # now the last used
        else:
            if len(self.splits) == SPLITS_KEPT:
                del self.splits[next(iter(self.splits))]
            m0, m1 = self.size(lo), self.size(hi)
            shift = bits * np.concatenate([np.arange(r), np.arange(self.n - r)])
            pack = np.left_shift(1, shift)
            d = self.powers[m0:m1].astype(np.int64)
            head, tail = d[:, :r] @ pack[:r], d[:, r:] @ pack[r:]
            hk, tk, entry = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0, np.intp)]
            for j, Q in enumerate(Qs):
                kept = np.flatnonzero(np.all(d[:, list(Q)] > 0, axis=1))
                hk.append(head[kept] - pack[[x for x in Q if x < r]].sum())
                tk.append(tail[kept] - pack[[x for x in Q if x >= r]].sum())
                entry.append(kept * len(Qs) + j)
            hk, tk = np.concatenate(hk), np.concatenate(tk)
            H, T = np.unique(hk), np.unique(tk)
            mask = (1 << bits) - 1
            self.splits[key] = None
            if len(H) * len(T) <= PASS_BLOCK:
                self.splits[key] = _Split(((H[:, None] >> shift[:r]) & mask).astype(float),
                                          ((T[:, None] >> shift[r:]) & mask).astype(float),
                                          np.searchsorted(H, hk) * len(T) + np.searchsorted(T, tk),
                                          np.concatenate(entry))
        return self.splits[key]


@dataclass
class _Split:
    """A pass's monomials, folded with the derivatives and split into a
    head and a tail (``_MonomialTable.split``): the distinct head and tail
    exponents, per kept (monomial, term) the flat index of its cell among
    the |head| x |tail| coefficients, and its flat index among the pass's
    (monomial, term) weights."""
    head: np.ndarray
    tail: np.ndarray
    cell: np.ndarray
    entry: np.ndarray

    def rows(self) -> int:
        """The rows of a block: each buffer within ``PASS_BLOCK`` elements,
        and the product with the coefficients under 4 ``PASS_BLOCK`` (2^19)
        multiply-adds, below which OpenBLAS runs a GEMM on one thread; on a
        2-vCPU host threaded GEMMs of this size at times stalled for 8 ms."""
        H, T = len(self.head), len(self.tail)
        return max(1, min(PASS_BLOCK // max(H, T, 1), (4 * PASS_BLOCK - 1) // max(H * T, 1)))


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of packed keys, sorted, and each row's index among
    them; one-word keys sort as plain integers."""
    if keys.shape[1] == 1:
        rows, index = np.unique(keys[:, 0], return_inverse=True)
        return rows[:, None], index
    rows, index = np.unique(keys, axis=0, return_inverse=True)
    return rows, index.ravel()


PASS_BLOCK = 1 << 17  # elements of each of the pass's buffers (1 MB of float64)
SPLITS_KEPT = 8  # per table; a grid call's two batches use two windows each
# the pass's cost model (``_Series._split``), in ns on a 2-vCPU host: per row
# and monomial, and per term; per row, per head or tail exponent and per
# cell; per call, and per (monomial, term) for the split's build and scatter
_MONOMIAL_NS = (1.3, 0.14)
_SPLIT_NS = (2.0, 0.03)
_BUILD_NS = (60_000, 80)
TAIL_START = 16  # degrees of a stopping search's first table of bounds
_TABLES: dict[bytes, _MonomialTable] = {}


# ---------------------------------------------------------------------------
# the angular integral as a power series


class _Series:
    """exp(diag . l) sum_j det_j (prod_{x in Q_j} d/dl_x) theta_B(l) over the
    pairs (Q_j, det_j) of ``terms``, where diag and B are the diagonal and
    off-diagonal parts of the real or complex matrix ``A`` and theta_B is
    the angular integral of B, summed as its series sum_d a_d l^d degree by
    degree (``_MonomialTable``, which also keeps the d! a_d of the last B
    it served) to the first degree K where every row's truncation bound is
    at most tol times its partial sum.  d/dl_x takes a monomial l^d to
    2 d_x / (2 l_x) times it.  Raises ``ValueError`` unless 0 < tol < inf.

    The bound: a_d sums the balanced flows with out-degrees d, each flow's
    term is at most its term in e^s, s = sum_{x != y} |B_xy| sqrt(l_x l_y),
    in powers of sqrt(l), and d/dl_x keeps such terms nonnegative; s being
    a sum of pair terms, Faa di Bruno bounds the error of (Q, det) by
    |exp(diag . l) det| sum_pi prod_{b in pi} d_b s T(s, K - |pi|), pi over
    the partitions of Q into blocks of one or two sites, T(s, k) =
    sum_{i>k} s^i / i! (e^s for k < 0).
    """

    def __init__(self, A: np.ndarray, terms: list, tol: float):
        _check_tol(tol)
        self.diag = np.diag(A).copy()
        self.B = A - np.diag(self.diag)
        support = self.B != 0
        key = support.tobytes()  # one table per support pattern; n^2 bytes fix n
        if key not in _TABLES:
            _TABLES[key] = _MonomialTable(support)
        self.table = _TABLES[key]
        self.terms = terms
        self.tol = tol
        self._W, self._through = np.zeros((0, len(terms))), -1

    def _weights(self, K: int) -> np.ndarray:
        """Per monomial of degree <= K and per term (Q, det): its
        coefficient a_d times prod_{x in Q} 2 d_x.  ``coef[k]`` holds
        d! a_d for the monomials of degree k, by the recurrence of
        ``_MonomialTable``: per degree, one ``bincount`` of c_S (d! a_d)
        over the triples (S, d, d + 1_S) into their targets.  The list is
        the table's, kept for the last rates B it served, so it may already
        reach past K."""
        if K > self._through:
            tab = self.table
            key = (self.B.dtype.str, self.B.tobytes())
            if tab.coef[0] != key:
                tab.coef = (key, [np.ones(1)])
            coef = tab.coef[1]
            if len(coef) <= K:
                # c_S = (-1)^|S| det(B_SS) of the covers, by cover size
                minors = {s: (-1) ** s * np.linalg.det(self.B[S[:, :, None], S[:, None, :]])
                          for s, S in tab.covers.items()}
            for k in range(len(coef), K + 1):
                w = np.concatenate([np.zeros(0, self.B.dtype)] +
                                   [np.outer(c, coef[k - s]).ravel()
                                    for s, c in minors.items() if s <= k])
                t, size = tab.targets[k], tab.start[k + 1] - tab.start[k]
                layer = -np.bincount(t, weights=w.real, minlength=size)
                if np.iscomplexobj(w):
                    layer = layer - 1j * np.bincount(t, weights=w.imag, minlength=size)
                coef.append(layer)
            m0, m1 = tab.size(self._through), tab.size(K)
            powers = tab.powers[m0:m1]
            a = np.concatenate(coef[self._through + 1 : K + 1]) / tab.d_fact[m0:m1]
            W = np.empty((m1 - m0, len(self.terms)), dtype=a.dtype)
            for j, (Q, _) in enumerate(self.terms):
                W[:, j] = a * np.prod(2.0 * powers[:, Q], axis=1)
            self._W, self._through = np.concatenate([self._W, W]), K
        return self._W

    def _pass_sum(self, logL: np.ndarray, scale: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Per row of ``logL`` = log(L), the share of the degrees lo+1 .. hi
        in the series, before the factor exp(diag . l); ``scale`` holds per
        row and term det_j prod_{x in Q_j} 1 / (2 l_x), which only the
        monomial form reads.

        A batch that pays back the build (``_split``) sums rowdot(U @ Wm,
        V) over the pass's folded split: U and V are exp of the rows' head
        and tail logs times the split's head and tail exponents, and Wm
        holds det_j a_d prod_{x in Q_j} d_x in the cell of d - 1_Q, scattered
        by one ``bincount``, so a row takes |head| + |tail| ``exp`` and one
        GEMM row.  Otherwise the pass takes one ``exp`` per monomial, the
        product P @ W with the weights and the row's ``scale``.

        The rows go through in blocks whose buffers, reused by every block,
        hold at most ``PASS_BLOCK`` elements each (``_Split.rows``): they
        then stay in cache, and a batch's working memory does not grow
        with its degree."""
        tab = self.table
        tab.extend(hi)
        m0, m1 = tab.size(lo), tab.size(hi)
        W = self._weights(hi)[m0:m1]
        out = np.zeros(len(logL), dtype=W.dtype)
        split = self._split(len(logL), lo, hi)
        if split is None:
            # per block: exp over the monomials' exponents at every site
            exps = [(slice(None), tab.powers[m0:m1])]
            block_rows = max(1, PASS_BLOCK // max(m1 - m0, len(self.terms)))
        else:
            folded = np.array([det * 0.5 ** len(Q) for Q, det in self.terms])
            w = (W * folded).ravel()[split.entry]
            size = len(split.head) * len(split.tail)
            Wm = np.bincount(split.cell, weights=w.real, minlength=size)
            if np.iscomplexobj(w):
                Wm = Wm + 1j * np.bincount(split.cell, weights=w.imag, minlength=size)
            Wm = Wm.reshape(len(split.head), len(split.tail))
            r = tab.n // 2
            exps = [(slice(None, r), split.head), (slice(r, None), split.tail)]
            block_rows = split.rows()
        if not len(logL) or not all(len(e) for _, e in exps):
            return out
        bufs = [np.empty((min(block_rows, len(logL)), len(e))) for _, e in exps]
        for start in range(0, len(logL), block_rows):
            rows = slice(start, start + block_rows)
            n = min(block_rows, len(logL) - start)
            P = [np.exp(np.matmul(logL[rows, sites], e.T, out=buf[:n]), out=buf[:n])
                 for (sites, e), buf in zip(exps, bufs)]
            if split is None:
                out[rows] = np.einsum("ij,ij->i", P[0] @ W, scale[rows])
            else:
                out[rows] = np.einsum("ij,ij->i", P[0] @ Wm, P[1])
        return out

    def _split(self, rows: int, lo: int, hi: int) -> _Split | None:
        """The table's split of the pass lo+1 .. hi where summing ``rows``
        rows through it costs less than through the monomials, else None.

        The costs, in ns on a 2-vCPU host: through the monomials rows M
        (1.3 + 0.14 J), M the pass's monomials and J the terms; through the
        split 60,000 + 80 J M for its build and scatter, counted on every
        call so that the form does not depend on what the table keeps, plus
        rows (2 (|head| + |tail|) + 0.03 |head| |tail|).  The split is not
        built unless the monomials cost more than its build, nor where its
        J M index entries would pass ``PASS_BLOCK``, nor used where its
        |head| |tail| coefficients would: one point, the finite
        differences' stencils and large tables take the monomials."""
        tab = self.table
        M, J = tab.size(hi) - tab.size(lo), len(self.terms)
        monomials = rows * M * (_MONOMIAL_NS[0] + _MONOMIAL_NS[1] * J)
        build = _BUILD_NS[0] + _BUILD_NS[1] * J * M
        if monomials <= build or J * M > PASS_BLOCK:
            return None
        split = tab.split(lo, hi, tuple(tuple(Q) for Q, _ in self.terms))
        if split is None:
            return None
        H, T = len(split.head), len(split.tail)
        per_row = _SPLIT_NS[0] * (H + T) + _SPLIT_NS[1] * H * T
        if monomials <= build + rows * per_row:
            return None
        return split

    def _majorant(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row, s and C_m = sum_j |det_j| sum_{|pi| = m} prod_{b in pi} d_b s,
        with d_x s = sum_y (|B_xy| + |B_yx|) sqrt(l_y / l_x) / 2 and d_x d_y s =
        (|B_xy| + |B_yx|) / (4 sqrt(l_x l_y)); ``sums[Q]`` holds the inner sum
        for Q by |pi|, built up over the subsets of the derivative sites.
        C is laid out (m, rows), so its arithmetic runs along the rows."""
        S = np.abs(self.B) + np.abs(self.B).T
        sql = np.sqrt(L)
        d1 = (sql @ S) / (2.0 * sql)
        sums = {(): np.ones((1, len(L)))}
        sites = sorted({x for Q, _ in self.terms for x in Q})
        for size in range(1, len(sites) + 1):
            for Q in itertools.combinations(sites, size):
                x, rest = Q[0], Q[1:]
                sums[Q] = np.zeros((size + 1, len(L)))
                sums[Q][1:] = d1[:, x] * sums[rest]  # x alone
                for i, y in enumerate(rest):  # x paired with y
                    pair = S[x, y] / (4.0 * sql[:, x] * sql[:, y])
                    sums[Q][1:-1] += pair * sums[rest[:i] + rest[i + 1 :]]

        C = np.zeros((1 + max((len(Q) for Q, _ in self.terms), default=0), len(L)))
        for Q, det in self.terms:
            C[: len(Q) + 1] += abs(det) * sums[tuple(Q)]
        return 0.5 * np.einsum("xy,ix,iy->i", S, sql, sql), C

    def _sum(self, L: np.ndarray, degree: int | None = None):
        """Values at the rows of ``L``, their truncation bounds and the
        degree summed through: ``degree`` if given, else the stopping degree.

        The stop is tested with T(s, k) <= min(e^s, s^(k+1) / (k+1)! /
        (1 - s / (k+2))), the second for s < k + 2; the bound reported is the
        exact tail e^s P(k + 1, s), P the regularized incomplete gamma, or
        that closed form where rounding puts it lower.  Past degree K the
        partial sum stays within |partial_K| + 2 b_K of zero, b_K the bound
        at K, so each pass sums through the first degree where every bound,
        falling with the degree, is within tol of that.  A pass reads the
        bounds of the degrees K .. J from one table of the closed form over
        j <= J, J doubled from ``TAIL_START`` up to ``MAX_DEGREE`` while no
        degree qualifies, and its rows go through in blocks whose arrays hold
        at most ``PASS_BLOCK`` elements.
        """
        L = np.asarray(L, dtype=float)
        logL, prefactor = np.log(L), np.exp(L @ self.diag)
        # per row and term: det times the factors 1/(2 l_x) of the derivatives
        scale = np.empty((len(L), len(self.terms)))
        for j, (Q, det) in enumerate(self.terms):
            scale[:, j] = det * np.prod(0.5 / L[:, Q], axis=1)
        s, C = self._majorant(L)
        M = len(C) - 1
        m = np.arange(M + 1)[:, None]  # a column against the rows of s
        with np.errstate(over="ignore", divide="ignore"):
            es, log_s = np.exp(s), np.log(s)
        top = MAX_DEGREE if degree is None else degree
        log_fact = gammaln(np.arange(top + 1) + 2)  # log (j + 1)!

        def tails(rows: slice, lo: int, hi: int) -> np.ndarray:
            """The bounds at ``rows`` of the degrees k = lo .. hi, laid out
            (k, row): sum_m C_m T(s, k - m), from one table of T(s, j) over
            j = lo - M .. hi.  einsum's order of summation over m depends on
            the layout (a lone row is summed in another order than a batch);
            in this one each degree's bound is summed as einsum sums the
            (m, row) array of that degree alone, bit for bit."""
            s_r, es_r = s[rows], es[rows]
            T = np.empty((hi - lo + M + 1, len(s_r)))
            neg = min(max(M - lo, 0), len(T))
            T[:neg] = es_r
            t, j = T[neg:], np.arange(max(lo - M, 0), hi + 1)[:, None]
            np.multiply(j + 1, log_s[rows], out=t)
            t -= log_fact[j]
            r = s_r / (j + 2)
            below = r < 1
            np.exp(t, out=t, where=below)
            np.divide(t, np.subtract(1, r, out=r), out=t, where=below)
            t[~below] = np.inf
            np.minimum(t, es_r, out=t)
            k = np.arange(hi - lo + 1)[:, None] - m.T + M
            return np.einsum("mi,kmi->ki", C[:, rows], T[k])

        def blocks(width: int) -> list[slice]:
            """The rows in blocks of nearly equal size, each within
            ``PASS_BLOCK`` elements at ``width`` elements a row; so a batch's
            last block is never a lone row, which ``tails`` would sum in
            another order."""
            count = -(-len(L) // max(1, PASS_BLOCK // width))
            return [slice(i * len(L) // count, (i + 1) * len(L) // count) for i in range(count)]

        def bound(K: int, tail: np.ndarray) -> np.ndarray:
            with np.errstate(invalid="ignore", over="ignore"):
                T = es * np.where(K >= m, gammainc(np.maximum(K - m, 0) + 1, s), 1.0)
                return np.abs(prefactor) * np.minimum(np.einsum("mi,mi->i", C, T), tail)

        every = slice(None)
        if degree is not None:
            return (prefactor * self._pass_sum(logL, scale, -1, degree),
                    bound(degree, tails(every, degree, degree)[0]), degree)
        total, K, J = np.zeros(len(L)), -1, min(TAIL_START, MAX_DEGREE)
        while True:
            # the first degree past K where every row's bound is within reach
            while True:
                if J > K:
                    within = np.ones(J - K, dtype=bool)
                    for rows in blocks((J - K + M + 1) * (M + 1)):
                        t = tails(rows, K, J)
                        reach = self.tol * (np.abs(total[rows]) + 2 * t[0])
                        within &= np.all(t[1:] <= reach, axis=1)
                    if within.any():
                        break
                if J == MAX_DEGREE:
                    raise ConvergenceError(f"series not converged at degree {MAX_DEGREE}")
                J = min(2 * J, MAX_DEGREE)
            hi = K + 1 + int(np.argmax(within))
            total = total + self._pass_sum(logL, scale, K, hi)
            tail = tails(every, hi, hi)[0]
            # written so that a nan bound (overflowed tail) does not stop
            if np.all(tail <= self.tol * np.abs(total)):
                return prefactor * total, bound(hi, tail), hi
            K = hi

    def value(self, l: np.ndarray):
        """Value at one local-time vector and its truncation bound."""
        out, err, _ = self._sum(np.asarray(l, dtype=float)[None, :])
        return out[0].item(), float(err[0])

    def values(self, L: np.ndarray):
        """Values and truncation bounds at the rows of ``L``, all summed through
        the one stopping degree; raises ``ValueError`` unless ``L`` is 2-D with
        one positive, finite local time per site, ``ConvergenceError`` past
        ``MAX_DEGREE`` and ``CapacityError`` past ``TABLE_LIMIT``."""
        L = np.asarray(L, dtype=float)
        if L.ndim != 2 or L.shape[1] != len(self.diag):
            raise ValueError(f"expected rows of {len(self.diag)} local times, got shape {L.shape}")
        _check_times(L)
        return self._sum(L)[:2]


def theta_integral_series(B_tilde, l, tol: float = 1e-12):
    """Evaluate the angular integral of ``exp(sum B~[x,y] sqrt(l_x l_y)
    e^{i(theta_x - theta_y)})`` as its power series in l.

    Diagonal entries contribute a plain exponential factor and are split off
    first.  Works for real or complex matrices.  Returns ``(value,
    tail_bound)``, summed until the bound is at most ``tol`` times the value.
    Raises ``ValueError`` unless ``l`` is 1-D with one positive, finite
    local time per row of ``B_tilde``.
    """
    B = np.asarray(B_tilde)
    l = np.asarray(l, dtype=float)
    if l.ndim != 1 or B.shape != (len(l), len(l)):
        raise ValueError("B_tilde must be square and match l")
    _check_times(l)
    return _Series(B, [((), 1.0)], tol).value(l)


# ---------------------------------------------------------------------------
# the density evaluators


@dataclass
class DensityResult:
    value: float
    method: str
    error_estimate: float
    meta: dict = field(default_factory=dict)


def _cofactor(M: np.ndarray, a_pos: int, b_pos: int) -> float:
    """Determinant of M with row ``b`` and column ``a`` replaced by the
    matching unit row/column (the (b, a) cofactor up to that convention)."""
    N = np.array(M)
    N[b_pos, :] = 0.0
    N[:, a_pos] = 0.0
    N[b_pos, a_pos] = 1.0
    return np.linalg.det(N)


def _derivative_expansion(M: np.ndarray, a_pos: int, b_pos: int):
    """Cofactor expansion of the operator det_ab(-M + d/dl): pairs of
    (derivative sites Q, scalar cofactor of -M on the complement of Q).

    Q ranges over subsets of the range minus {a, b}; the operator order is
    |R| - 2 (+1 when a == b), which the expansion realizes by construction.
    """
    n = M.shape[0]
    free = [x for x in range(n) if x != a_pos and x != b_pos]
    terms = []
    for r in range(len(free) + 1):
        for Q in itertools.combinations(free, r):
            keep = [x for x in range(n) if x not in Q]
            sub = (-M)[np.ix_(keep, keep)]
            det = _cofactor(sub, keep.index(a_pos), keep.index(b_pos))
            terms.append((Q, det))
    return terms


class SeriesEvaluator(_Series):
    """Series density evaluator, reusable across many local-time
    vectors on the same (generator, range) pair."""

    def __init__(self, gen: Generator, spec: RangeSpec, tol: float = 1e-10):
        A = gen.submatrix(spec.range)
        B = A - np.diag(np.diag(A))
        pairs = _derivative_expansion(B, spec.range.index(spec.start), spec.range.index(spec.end))
        terms = [(list(Q), det) for Q, det in pairs if det != 0.0]
        super().__init__(A, terms, tol)


def density_series(gen: Generator, spec: RangeSpec, l, tol: float = 1e-10) -> DensityResult:
    """Series evaluation of the local-time density."""
    ev = SeriesEvaluator(gen, spec, tol=tol)
    value, err, K = ev._sum(as_times(spec, l)[None, :])
    return DensityResult(
        value=value[0].item(),
        method="series",
        error_estimate=float(err[0]),
        meta={"tol": tol, "range_size": spec.size, "degree": K,
              "monomials": ev.table.size(K)},
    )


def _quadrature_integrand(A: np.ndarray, lv: np.ndarray, z: np.ndarray, a_pos: int, b_pos: int):
    """The quadrature integrand at each row of unit phases z = e^{i theta}.

    Every phase e^{i(theta_x - theta_y)} is z_x conj(z_y), so a node needs
    only w = sqrt(l) z: the exponent is sum_xy A_xy w_x conj(w_y), and the
    determinant is that of -B plus the potential (z_x / sqrt(l_x))
    (B conj(w))_x on its diagonal, row b and column a replaced by units.
    Those units leave (-1)^(a+b) times the minor without row b and column
    a, so only that (|R| - 1)-square stack is built; its diagonal entries
    are the sites other than a and b."""
    n = len(lv)
    sql = np.sqrt(lv)
    A = A.astype(complex)  # like w, so that no product below casts a per-node array
    B = A - np.diag(np.diag(A))
    w = sql * z
    wc = w.conj()
    expo = np.exp(np.einsum("ix,xy,iy->i", w, A, wc))
    rows = [x for x in range(n) if x != b_pos]
    cols = [x for x in range(n) if x != a_pos]
    keep = [x for x in rows if x != a_pos]
    D = np.empty((len(z), n - 1, n - 1), dtype=complex)
    D[:] = -B[np.ix_(rows, cols)]
    diag = [rows.index(x) * (n - 1) + cols.index(x) for x in keep]
    D.reshape(len(z), -1)[:, diag] += z[:, keep] / sql[keep] * (wc @ B[keep].T)
    return (-1) ** (a_pos + b_pos) * np.linalg.det(D) * expo


def _quadrature_grid(A: np.ndarray, lv: np.ndarray, a_pos: int, tol: float) -> np.ndarray:
    """Nodes of the first trapezoidal grid on each angle but ``a_pos``'s.

    Angle x enters the exponent with strength s_x = sum_y (|B_xy| + |B_yx|)
    sqrt(l_x l_y), and the N-node rule on e^{s cos theta} is off by about
    2 I_N(s) / I_0(s) (Trefethen & Weideman, SIAM Rev. 56, 2014).  Each
    angle gets the smallest N that puts this within tol, plus |R| for the
    determinant's degree in the phase.  The bisection for N starts below
    c + sqrt(c^2 + 2cs), c = log(2 / tol) - log(e^{-s} I_0(s)), since
    I_N(s) <= e^{s cosh t - Nt} at t = asinh(N / s), which is at most
    e^{s - N^2 / (2(s + N))}."""
    _check_tol(tol)
    B = np.abs(A - np.diag(np.diag(A)))
    sql = np.sqrt(lv)
    s = np.delete(sql * ((B + B.T) @ sql), a_pos)
    i0 = ive(0, s)
    c = np.log(2.0 / tol) - np.log(i0)
    lo, hi = np.zeros(len(s)), np.ceil(c + np.sqrt(c * c + 2.0 * c * s))
    while np.any(hi - lo > 1):
        mid = np.floor((lo + hi) / 2)
        ok = 2.0 * ive(mid, s) <= tol * i0
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
    return hi.astype(np.int64) + len(lv)


def _refine(N: np.ndarray) -> np.ndarray:
    """The grid compared with N: N + max(4, N // 8) nodes per angle."""
    return N + np.maximum(4, N // 8)


def density_quadrature(gen: Generator, spec: RangeSpec, l, tol: float = 1e-9) -> DensityResult:
    """Derivative-free evaluation: complex cofactor determinant times the
    oscillatory exponential (``_quadrature_integrand``), integrated by a
    periodic trapezoidal rule with the starting site's angle pinned to zero.

    The rates are real, so the node -theta gives the complex conjugate of
    the node theta, and each grid maps onto itself under k -> -k mod N on
    every angle.  Only the nodes whose last angle has index k <= N / 2 are
    evaluated, those with 0 < 2k < N counted twice, and the mean is the
    weighted sum of the real part over the full grid's size: real by
    construction, on about (N // 2 + 1) / N of the nodes.

    The grid sized by ``_quadrature_grid`` and each one after it are
    compared with the next (``_refine``) until two agree to ``tol``
    relative to the finer.  The error estimate adds the rounding,
    2^-52 (sum_xy |A_xy| sqrt(l_x l_y) + |R|) times the mean modulus of the
    integrand, which takes the same weights.  ``ConvergenceError`` is
    raised before any grid that takes the grid nodes past
    ``QUADRATURE_NODE_LIMIT``, the first two grids counted together; the
    limit counts every node of a grid, evaluated or not.  ``meta`` gives
    the finest grid's nodes and ``evaluated``, the nodes computed over all
    the grids.
    """
    lv = as_times(spec, l)
    A = gen.submatrix(spec.range)
    n = spec.size
    a_pos = spec.range.index(spec.start)
    b_pos = spec.range.index(spec.end)
    cols = [k for k in range(n) if k != a_pos]

    def node_means(N: np.ndarray) -> tuple[float, float, int]:
        """Means of the integrand's real part and of its modulus over the
        grid of N[j] nodes on angle cols[j], and the nodes evaluated.  The nodes come in
        chunks from a flat index whose most significant digit is the last
        angle's index k, so the half grid k <= N[-1] / 2 is a prefix of it."""
        roots = [np.exp(1j * (np.arange(k) * (2 * np.pi / k))) for k in N]
        last = int(N[-1]) if len(N) else 1
        inner = prod(N[:-1].tolist())
        half = inner * (last // 2 + 1)
        total, modulus = 0.0, 0.0
        for lo in range(0, half, 65536):
            flat = np.arange(lo, min(lo + 65536, half))
            k = flat // inner
            weight = np.where((k > 0) & (2 * k < last), 2.0, 1.0)
            z = np.ones((len(flat), n), dtype=complex)
            for col, r in zip(cols, roots):
                flat, i = np.divmod(flat, len(r))
                z[:, col] = r[i]
            f = _quadrature_integrand(A, lv, z, a_pos, b_pos)
            total += weight @ f.real
            modulus += weight @ np.abs(f)
        size = inner * last
        return total / size, modulus / size, half

    N = _quadrature_grid(A, lv, a_pos, tol)
    used, prev, evaluated = prod(N.tolist()), None, 0
    while True:
        fine = _refine(N)
        used += prod(fine.tolist())
        if used > QUADRATURE_NODE_LIMIT:
            raise ConvergenceError(
                f"quadrature not converged within {QUADRATURE_NODE_LIMIT} nodes "
                f"(up to {fine.max()} per angle over {n - 1} angles)")
        if prev is None:
            prev, _, count = node_means(N)
            evaluated += count
        cur, modulus, count = node_means(fine)
        evaluated += count
        diff = abs(cur - prev)
        if diff <= tol * abs(cur):
            break
        prev, N = cur, fine
    sql = np.sqrt(lv)
    rounding = 2.0 ** -52 * (sql @ np.abs(A) @ sql + n) * modulus
    return DensityResult(
        value=float(cur),
        method="quadrature",
        error_estimate=float(diff + rounding),
        meta={"nodes_per_angle": max(fine.tolist(), default=0), "nodes": prod(fine.tolist()),
              "evaluated": evaluated},
    )


def density_finite_difference(gen: Generator, spec: RangeSpec, l) -> DensityResult:
    """Apply the cofactor-determinant operator (full rates, including the
    diagonal) to the angular integral's series, summed to ``FD_TOL``, by
    mixed central differences, with Richardson extrapolation over step
    halving.

    The step grows with the differentiation order, up to a quarter of the
    smallest local time: high-order mixed stencils divide by step^order,
    so too small a step drowns the value in rounding noise.  ``meta`` gives
    the step and the series degree the stencil batch was summed through."""
    lv = as_times(spec, l)
    order = spec.size - 2 + (spec.start == spec.end)
    step = min(lv.min() / 4.0, 0.01 * (order + 1))
    A = gen.submatrix(spec.range)
    terms = _derivative_expansion(A, spec.range.index(spec.start), spec.range.index(spec.end))
    # both steps' stencils as one batch, each row weighted into its step's sum
    rows, weights = [], []
    for h in (step, step / 2):
        for Q, det in terms:
            for signs in itertools.product((-1.0, 1.0), repeat=len(Q)):
                row = lv.copy()
                row[list(Q)] += np.multiply(signs, h / 2)
                rows.append(row)
                weights.append(det * np.prod(signs) / h ** len(Q))
    theta, _, degree = _Series(A, [((), 1.0)], FD_TOL)._sum(np.array(rows))
    coarse, fine = (np.array(weights) * theta).reshape(2, -1).sum(axis=1)
    value = (4.0 * fine - coarse) / 3.0
    err = abs(fine - coarse) / 3.0 + FD_TOL * max(abs(value), 1.0)
    return DensityResult(
        value=value,
        method="finite-difference",
        error_estimate=float(err),
        meta={"step": step, "degree": degree},
    )


def local_time_density(gen: Generator, spec: RangeSpec, l, tol: float = 1e-9) -> DensityResult:
    """Evaluate the density by the route chosen before any evaluation: the
    angular quadrature when its first two sized grids fit within
    ``QUADRATURE_NODE_LIMIT`` together, the series otherwise."""
    lv = as_times(spec, l)
    N = _quadrature_grid(gen.submatrix(spec.range), lv, spec.range.index(spec.start), tol)
    if prod(N.tolist()) + prod(_refine(N).tolist()) <= QUADRATURE_NODE_LIMIT:
        return density_quadrature(gen, spec, lv, tol=tol)
    return density_series(gen, spec, lv, tol=tol)


def gauge_invariance_check(gen: Generator, spec: RangeSpec, l, r, tol: float = 1e-12) -> float:
    """Deviation of the density when the integrand's jump rates are
    conjugated by a positive radius vector; exactly zero in theory.

    Both series are summed through the degree the density itself needs.
    Every monomial's coefficient, and each det(B_SS) it is computed from,
    is invariant under the conjugation, so the two truncations agree
    termwise and the deviation measures rounding, not truncation, at any
    tolerance.  Raises ``ValueError`` unless ``r`` holds one positive,
    finite entry per range site."""
    r = np.asarray(r, dtype=float)
    if r.shape != (spec.size,) or not np.all((r > 0) & (r < np.inf)):
        raise ValueError(f"radius vector must hold {spec.size} positive, finite entries")
    L = as_times(spec, l)[None, :]
    base = SeriesEvaluator(gen, spec, tol=tol)
    K = base._sum(L)[2]
    conj = (r[:, None] * base.B) / r[None, :]
    twisted = _Series(np.diag(base.diag) + conj, base.terms, tol)
    return float(abs(base._sum(L, degree=K)[0][0] - twisted._sum(L, degree=K)[0][0]))
