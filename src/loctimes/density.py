"""Joint local-time density on a fixed range, by three independent routes.

The density of the local-time vector on the event that the chain has exactly
range R, runs from ``start`` to ``end``, is a cofactor-determinant
differential operator applied to an angular integral.  This module evaluates
it three ways:

* ``density_series`` -- expand the angular integral into a sum over balanced
  integer flows and apply the derivative operator analytically, term by term;
* ``density_quadrature`` -- the derivative-free form: a complex cofactor
  determinant integrated over angles with a periodic trapezoidal rule;
* ``density_finite_difference`` -- apply the derivative operator to the
  angular integral's flow series by Richardson-extrapolated mixed central
  differences, the stencils of both steps evaluated as one batch
  (test-only; least accurate).

Accuracy degrades when some local time drops below ~1e-8 of the horizon; the
evaluators are meant for the open simplex only.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from math import prod
from typing import Mapping

import numpy as np
from scipy.special import gammainc, gammaln, ive

from .chain import Generator, RangeSpec

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

FLOW_LIMIT = 2_000_000
MAX_DEGREE = 80
QUADRATURE_NODE_LIMIT = 2 ** 24


class ConvergenceError(RuntimeError):
    """Series or quadrature failed to reach the requested tolerance."""


class CapacityError(RuntimeError):
    """An enumeration exceeded its configured size limit."""


# ---------------------------------------------------------------------------
# local-time vectors


def as_times(spec: RangeSpec, l) -> np.ndarray:
    """Coerce a dict keyed by site, or a sequence in range order, to a
    positive, finite array ordered by the range."""
    if isinstance(l, Mapping):
        if set(l) != set(spec.range):
            raise ValueError("local-time support does not match the range")
        l = [l[s] for s in spec.range]
    arr = np.asarray(l, dtype=float)
    if arr.shape != (spec.size,):
        raise ValueError(f"expected {spec.size} local times, got shape {arr.shape}")
    if not np.all((arr > 0) & (arr < np.inf)):
        raise ValueError("all local times must be positive and finite")
    return arr


# ---------------------------------------------------------------------------
# balanced flows


class _Packing:
    """Rows of nonnegative integers below 2**bits, packed into int64 words.

    Field e sits in word e // per_word, the first field of a word in its
    highest bits, and bit 63 stays clear.  So comparing the words in turn
    orders packed rows lexicographically, and adding packed rows adds
    their fields as long as no field sum reaches 2**bits."""

    def __init__(self, n_fields: int, bits: int):
        per_word = 63 // bits
        e = np.arange(n_fields)
        self.word = e // per_word
        self.shift = bits * (per_word - 1 - e % per_word)
        self.mask = (1 << bits) - 1
        self.words = max(1, -(-n_fields // per_word))
        self.matrix = np.zeros((n_fields, self.words), dtype=np.int64)
        self.matrix[e, self.word] = np.left_shift(1, self.shift)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.matrix

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        return (keys[:, self.word] >> self.shift) & self.mask


def _unique_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of packed keys in lexicographic order, and each
    input row's index among them."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _simple_cycles(support: np.ndarray, longest: int) -> np.ndarray:
    """Edge-count rows, over the support's edges in row-major order, of the
    simple cycles of at most ``longest`` sites on the digraph ``support``,
    each found once by backtracking from its smallest site; past
    ``FLOW_LIMIT`` of them, each itself a flow, it raises ``CapacityError``."""
    n = len(support)
    edge = (np.cumsum(support) - 1).reshape(n, n).tolist()  # a support edge's index
    succ = [np.flatnonzero(row).tolist() for row in support]
    flat, lengths, stack = array("i"), [], []  # the cycles' edges, their lengths, the path's edges

    def grow(start: int, x: int, visited: int):  # visited: one bit per site on the path
        for y in succ[x]:
            stack.append(edge[x][y])
            if y == start:
                flat.extend(stack)
                lengths.append(len(stack))
                if len(lengths) > FLOW_LIMIT:
                    raise CapacityError(f"more than {FLOW_LIMIT} simple cycles on {n} sites")
            elif y > start and not visited >> y & 1 and len(stack) < longest:
                grow(start, y, visited | 1 << y)
            stack.pop()

    for x in range(n):
        grow(x, x, 0)
    rows = np.zeros((len(lengths), int(support.sum())), dtype=np.int64)
    rows[np.repeat(np.arange(len(lengths)), lengths), flat] = 1
    return rows


class _FlowTable:
    """Balanced flows on the digraph ``support``, complete through degree
    ``max_degree``, stored as counts on the support's edges in row-major
    order; a flow with a count off the support has coefficient 0.

    A flow enters the series only through its coefficient and its
    monomial prod_x l_x^{deg_x/2}, where deg_x is the in + out degree at
    site x.  Flows with equal site degrees share a monomial, so the table
    also keeps the distinct site-degree rows (``powers``, halved; they are
    all even) and each flow's row in them (``monomial``).  Flows and
    monomials are both in degree order, lexicographic within a degree, so
    those of degree <= K are a prefix of each.

    ``extend`` appends one layer per degree.  Every balanced flow is a sum
    of simple directed cycles (flow decomposition), so the flows of degree
    k are those of degree k - |c| plus a cycle c of the support,
    deduplicated.  A flow is held as a packed key of its counts, so adding
    a cycle is an integer add, and sorting the keys both deduplicates a
    layer and puts it in lexicographic order.  Every cycle through an edge
    adds at least 2 to the degree, so no count exceeds K // 2.
    """

    _LAYERED = ("counts", "degree", "inv_factorial", "powers", "monomial", "monomial_degree")

    def __init__(self, support: np.ndarray):
        n = len(support)
        self.support = support
        x, y = np.nonzero(support)
        self.ends = np.eye(n, dtype=np.int64)[x] + np.eye(n, dtype=np.int64)[y]  # per edge
        self.max_degree = -1
        self.counts = np.zeros((0, len(x)), dtype=np.int64)
        self.degree = np.zeros(0, dtype=np.int64)
        self.inv_factorial = np.zeros(0)
        self.powers = np.zeros((0, n))
        self.monomial = np.zeros(0, dtype=np.intp)
        self.monomial_degree = np.zeros(0, dtype=np.int64)

    def extend(self, max_degree: int):
        """Append the layers through ``max_degree``.  Raises
        ``CapacityError`` when a layer would take the flow count past
        ``FLOW_LIMIT``; the layers below it are kept."""
        if max_degree <= self.max_degree:
            return
        n_edges, n = self.ends.shape
        bits = max(1, (max_degree // 2).bit_length())
        flows, sites = _Packing(n_edges, bits), _Packing(n, bits)
        rows = _simple_cycles(self.support, min(n, max_degree))
        cycles = list(zip(flows.pack(rows), rows.sum(axis=1)))
        keys = {}  # degree -> the layer's sorted keys
        for k in range(max(0, self.max_degree + 1 - n), self.max_degree + 1):
            lo, hi = np.searchsorted(self.degree, [k, k + 1])
            keys[k] = flows.pack(self.counts[lo:hi])
        parts = {name: [getattr(self, name)] for name in self._LAYERED}
        total, n_monomials = len(self.counts), len(self.powers)
        try:
            for k in range(self.max_degree + 1, max_degree + 1):
                layer = np.zeros((int(k == 0), flows.words), dtype=np.int64)
                pending, waiting = [], 0
                for i, (key, length) in enumerate(cycles):
                    if length <= k:
                        pending.append(keys[k - length] + key)
                        waiting += len(pending[-1])
                    # merging once the candidates outnumber the merged keys
                    # holds at most about twice the room left at a time
                    if pending and (i == len(cycles) - 1 or waiting > len(layer)):
                        layer = _unique_rows(np.concatenate([layer, *pending]))[0]
                        pending, waiting = [], 0
                        if total + len(layer) > FLOW_LIMIT:
                            break
                if total + len(layer) > FLOW_LIMIT:
                    raise CapacityError(f"more than {FLOW_LIMIT} balanced flows at degree <= {k}")
                keys[k] = layer
                counts = np.ascontiguousarray(flows.unpack(layer))
                rows, index = _unique_rows(sites.pack(counts @ self.ends // 2))  # in + out, halved
                new = {
                    "counts": counts,
                    "degree": np.full(len(layer), k, dtype=np.int64),
                    "inv_factorial": np.exp(-np.sum(_LOG_FACT[counts], axis=1)),
                    "powers": sites.unpack(rows).astype(float),
                    "monomial": n_monomials + index,
                    "monomial_degree": np.full(len(rows), k, dtype=np.int64),
                }
                for name, arr in new.items():
                    parts[name].append(arr)
                total += len(layer)
                n_monomials += len(rows)
                self.max_degree = k
        finally:
            for name, arrs in parts.items():
                setattr(self, name, np.concatenate(arrs))

    def sizes(self, K: int) -> tuple[int, int]:
        """Numbers of flows and of monomials of degree <= K."""
        return (int(np.searchsorted(self.degree, K, side="right")),
                int(np.searchsorted(self.monomial_degree, K, side="right")))


def _block_rows(width: int) -> int:
    """Rows per block of the (flows, edges) powers of ``_weights``: at most
    about a million elements (8 MB of float64), and at least 32 rows."""
    return max(32, 1_000_000 // max(width, 1))


PASS_BLOCK = 1 << 17  # elements of the monomial pass's buffer (1 MB of float64)
_LOG_FACT = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, 200)))))
_FLOW_TABLES: dict[bytes, _FlowTable] = {}


# ---------------------------------------------------------------------------
# the angular integral as a flow series


class _FlowSeries:
    """exp(diag . l) sum_j det_j (prod_{x in Q_j} d/dl_x) theta_B(l) over the
    pairs (Q_j, det_j) of ``terms``, where diag and B are the diagonal and
    off-diagonal parts of the real or complex matrix ``A`` and theta_B is
    the angular integral of B, summed as its balanced-flow series degree by
    degree to the first degree K where every row's truncation bound is at
    most tol times its partial sum.  d/dl_x takes a monomial prod l^(deg/2)
    to deg_x / (2 l_x) times it.

    The bound: each flow's coefficient is at most its term in e^s,
    s = sum_{x != y} |B_xy| sqrt(l_x l_y), in powers of sqrt(l), and d/dl_x
    keeps such terms nonnegative; s being a sum of pair terms, Faa di Bruno
    bounds the error of (Q, det) by |exp(diag . l) det| sum_pi prod_{b in pi}
    d_b s T(s, K - |pi|), pi over the partitions of Q into blocks of one or
    two sites, T(s, k) = sum_{i>k} s^i / i! (e^s for k < 0).
    """

    def __init__(self, A: np.ndarray, terms: list, tol: float):
        self.diag = np.diag(A).copy()
        self.B = A - np.diag(self.diag)
        support = self.B != 0
        self.rates = self.B[support]  # in the order of the table's edges
        key = support.tobytes()  # one table per support pattern; n^2 bytes fix n
        if key not in _FLOW_TABLES:
            _FLOW_TABLES[key] = _FlowTable(support)
        self.table = _FLOW_TABLES[key]
        self.terms = terms
        self.tol = tol
        self._W, self._through = np.zeros((0, len(terms))), -1

    def _weights(self, K: int) -> np.ndarray:
        """Per monomial of degree <= K and per term: the summed coefficients
        prod B_xy^n_xy / n_xy! of its flows times prod_{x in Q} deg_x."""
        if K > self._through:
            tab = self.table
            (f0, m0), (f1, m1) = tab.sizes(self._through), tab.sizes(K)
            coeff = np.empty(f1 - f0, dtype=self.rates.dtype)
            step = _block_rows(len(self.rates))  # the (flows, edges) powers, in blocks
            for a in range(f0, f1, step):
                b = min(a + step, f1)
                coeff[a - f0 : b - f0] = np.prod(self.rates ** tab.counts[a:b], axis=1)
            coeff *= tab.inv_factorial[f0:f1]
            agg = np.zeros(m1 - m0, dtype=coeff.dtype)
            np.add.at(agg, tab.monomial[f0:f1] - m0, coeff)
            W = np.empty((m1 - m0, len(self.terms)), dtype=agg.dtype)
            for j, (Q, _) in enumerate(self.terms):
                W[:, j] = agg * np.prod(2.0 * tab.powers[m0:m1, Q], axis=1)
            self._W, self._through = np.concatenate([self._W, W]), K
        return self._W

    def _pass_sum(self, logL: np.ndarray, scale: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Per row of ``logL`` = log(L), the share of the degrees lo+1 .. hi
        in the series, before the factor exp(diag . l).

        The rows go through in blocks that fill one (rows, monomials)
        buffer of ``PASS_BLOCK`` elements, reused by every block: the
        buffer then stays in cache through its three passes (the powers,
        their exp and the product with the weights), and a batch's working
        memory does not grow with its degree."""
        tab = self.table
        tab.extend(hi)
        m0, m1 = tab.sizes(lo)[1], tab.sizes(hi)[1]
        W, powers = self._weights(hi)[m0:m1], tab.powers[m0:m1]
        out = np.empty(len(logL), dtype=W.dtype)
        chunk = max(1, PASS_BLOCK // max(len(powers), 1))
        buf = np.empty((min(chunk, len(logL)), len(powers)))
        for lo_row in range(0, len(logL), chunk):
            rows = slice(lo_row, lo_row + chunk)
            block = logL[rows]
            P = np.matmul(block, powers.T, out=buf[: len(block)])
            np.exp(P, out=P)
            out[rows] = np.einsum("ij,ij->i", P @ W, scale[rows])
        return out

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
        falling with the degree, is within tol of that, found by bisection.
        """
        L = np.asarray(L, dtype=float)
        logL, prefactor = np.log(L), np.exp(L @ self.diag)
        # per row and term: det times the factors 1/(2 l_x) of the derivatives
        scale = np.empty((len(L), len(self.terms)))
        for j, (Q, det) in enumerate(self.terms):
            scale[:, j] = det * np.prod(0.5 / L[:, Q], axis=1)
        s, C = self._majorant(L)
        m = np.arange(len(C))[:, None]  # a column against the rows of s
        with np.errstate(over="ignore", divide="ignore"):
            es, log_s = np.exp(s), np.log(s)

        def tail(K: int) -> np.ndarray:
            k = np.maximum(K - m, 0)
            r = s / (k + 2)
            t = np.exp((k + 1) * log_s - gammaln(k + 2), out=np.zeros(r.shape), where=r < 1)
            T = np.minimum(es, np.divide(t, 1 - r, out=np.full(r.shape, np.inf), where=r < 1))
            return np.einsum("mi,mi->i", C, np.where(K - m < 0, es, T))

        def bound(K: int) -> np.ndarray:
            with np.errstate(invalid="ignore", over="ignore"):
                T = es * np.where(K >= m, gammainc(np.maximum(K - m, 0) + 1, s), 1.0)
                return np.abs(prefactor) * np.minimum(np.einsum("mi,mi->i", C, T), tail(K))

        if degree is not None:
            return prefactor * self._pass_sum(logL, scale, -1, degree), bound(degree), degree
        total, K = np.zeros(len(L)), -1
        while True:
            reach = self.tol * (np.abs(total) + 2 * tail(K))
            degrees = range(K + 1, MAX_DEGREE + 1)
            hi = K + 1 + bisect_left(degrees, True, key=lambda k: bool(np.all(tail(k) <= reach)))
            if hi > MAX_DEGREE:
                raise ConvergenceError(f"flow series not converged at degree {MAX_DEGREE}")
            total = total + self._pass_sum(logL, scale, K, hi)
            # written so that a nan bound (overflowed tail) does not stop
            if np.all(tail(hi) <= self.tol * np.abs(total)):
                return prefactor * total, bound(hi), hi
            K = hi

    def value(self, l: np.ndarray):
        """Value at one local-time vector and its truncation bound."""
        out, err, _ = self._sum(np.asarray(l, dtype=float)[None, :])
        return out[0].item(), float(err[0])

    def values(self, L: np.ndarray):
        """Values and truncation bounds at the rows of ``L``, all summed through
        the one stopping degree; raises ``ValueError`` unless ``L`` is 2-D with
        one positive, finite local time per site, ``ConvergenceError`` past
        ``MAX_DEGREE`` and ``CapacityError`` past ``FLOW_LIMIT``."""
        L = np.asarray(L, dtype=float)
        if L.ndim != 2 or L.shape[1] != len(self.diag):
            raise ValueError(f"expected rows of {len(self.diag)} local times, got shape {L.shape}")
        if not np.all((L > 0) & (L < np.inf)):
            raise ValueError("all local times must be positive and finite")
        return self._sum(L)[:2]


def theta_integral_series(B_tilde, l, tol: float = 1e-12):
    """Evaluate the angular integral of ``exp(sum B~[x,y] sqrt(l_x l_y)
    e^{i(theta_x - theta_y)})`` as its balanced-flow power series.

    Diagonal entries contribute a plain exponential factor and are split off
    first.  Works for real or complex matrices.  Returns ``(value,
    tail_bound)``, summed until the bound is at most ``tol`` times the value.
    """
    B = np.asarray(B_tilde)
    l = np.asarray(l, dtype=float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if l.ndim != 1 or B.shape != (len(l), len(l)):
        raise ValueError("B_tilde must be square and match l")
    return _FlowSeries(B, [((), 1.0)], tol).value(l)


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


class SeriesEvaluator(_FlowSeries):
    """Flow-series density evaluator, reusable across many local-time
    vectors on the same (generator, range) pair."""

    def __init__(self, gen: Generator, spec: RangeSpec, tol: float = 1e-10):
        A = gen.submatrix(spec.range)
        B = A - np.diag(np.diag(A))
        pairs = _derivative_expansion(B, spec.range.index(spec.start), spec.range.index(spec.end))
        terms = [(list(Q), det) for Q, det in pairs if det != 0.0]
        super().__init__(A, terms, tol)


def density_series(gen: Generator, spec: RangeSpec, l, tol: float = 1e-10) -> DensityResult:
    """Flow-series evaluation of the local-time density."""
    ev = SeriesEvaluator(gen, spec, tol=tol)
    value, err, K = ev._sum(as_times(spec, l)[None, :])
    flows, monomials = ev.table.sizes(K)
    return DensityResult(
        value=value[0].item(),
        method="series",
        error_estimate=float(err[0]),
        meta={"tol": tol, "range_size": spec.size, "degree": K, "flows": flows,
              "monomials": monomials},
    )


def _quadrature_integrand(A: np.ndarray, lv: np.ndarray, z: np.ndarray, a_pos: int, b_pos: int):
    """The quadrature integrand at each row of unit phases z = e^{i theta}.

    Every phase e^{i(theta_x - theta_y)} is z_x conj(z_y), so a node needs
    only w = sqrt(l) z: the exponent is sum_xy A_xy w_x conj(w_y), and the
    determinant is that of -B plus the potential (z_x / sqrt(l_x))
    (B conj(w))_x on its diagonal, row b and column a replaced by units."""
    n = len(lv)
    sql = np.sqrt(lv)
    A = A.astype(complex)  # like w, so that no product below casts a per-node array
    B = A - np.diag(np.diag(A))
    w = sql * z
    wc = w.conj()
    expo = np.exp(np.einsum("ix,xy,iy->i", w, A, wc))
    D = np.empty((len(z), n, n), dtype=complex)
    D[:] = -B
    D.reshape(-1, n * n)[:, :: n + 1] += z / sql * (wc @ B.T)  # the diagonals
    D[:, b_pos, :] = 0.0
    D[:, :, a_pos] = 0.0
    D[:, b_pos, a_pos] = 1.0
    return np.linalg.det(D) * expo


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
    if not tol > 0:
        raise ValueError("tol must be positive")
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

    The grid sized by ``_quadrature_grid`` and each one after it are
    compared with the next (``_refine``) until two agree to ``tol``
    relative to the finer.  The error estimate adds the imaginary part and
    the rounding, 2^-52 (sum_xy |A_xy| sqrt(l_x l_y) + |R|) times the mean
    modulus of the integrand.  ``ConvergenceError`` is raised before any
    grid that takes the nodes evaluated past ``QUADRATURE_NODE_LIMIT``,
    the first two grids counted together.
    """
    lv = as_times(spec, l)
    A = gen.submatrix(spec.range)
    n = spec.size
    a_pos = spec.range.index(spec.start)
    b_pos = spec.range.index(spec.end)
    cols = [k for k in range(n) if k != a_pos]

    def node_means(N: np.ndarray) -> tuple[complex, float]:
        """Means of the integrand and of its modulus over the grid of N[j]
        nodes on angle cols[j], generated in chunks from a flat index."""
        roots = [np.exp(1j * (np.arange(k) * (2 * np.pi / k))) for k in N]
        total, modulus, size = 0.0 + 0.0j, 0.0, prod(N.tolist())
        for lo in range(0, size, 65536):
            flat = np.arange(lo, min(lo + 65536, size))
            z = np.ones((len(flat), n), dtype=complex)
            for col, r in zip(cols, roots):
                flat, i = np.divmod(flat, len(r))
                z[:, col] = r[i]
            f = _quadrature_integrand(A, lv, z, a_pos, b_pos)
            total += np.sum(f)
            modulus += np.sum(np.abs(f))
        return total / size, modulus / size

    N = _quadrature_grid(A, lv, a_pos, tol)
    used, prev = prod(N.tolist()), None
    while True:
        fine = _refine(N)
        used += prod(fine.tolist())
        if used > QUADRATURE_NODE_LIMIT:
            raise ConvergenceError(
                f"quadrature not converged within {QUADRATURE_NODE_LIMIT} nodes "
                f"(up to {fine.max()} per angle over {n - 1} angles)")
        if prev is None:
            prev = node_means(N)[0]
        cur, modulus = node_means(fine)
        diff = abs(cur - prev)
        if diff <= tol * abs(cur):
            break
        prev, N = cur, fine
    sql = np.sqrt(lv)
    rounding = 2.0 ** -52 * (sql @ np.abs(A) @ sql + n) * modulus
    return DensityResult(
        value=float(cur.real),
        method="quadrature",
        error_estimate=float(diff + abs(cur.imag) + rounding),
        meta={"nodes_per_angle": max(fine.tolist(), default=0), "nodes": prod(fine.tolist())},
    )


def density_finite_difference(
    gen: Generator,
    spec: RangeSpec,
    l,
    step: float | None = None,
    tol: float = 1e-10,
) -> DensityResult:
    """Apply the cofactor-determinant operator (full rates, including the
    diagonal) to the angular integral's flow series by mixed central
    differences, with Richardson extrapolation over step halving.

    The default step grows with the differentiation order: high-order
    mixed stencils divide by step^order, so too small a step drowns the
    value in rounding noise."""
    lv = as_times(spec, l)
    if step is None:
        order = spec.size - 2 + (spec.start == spec.end)
        step = min(lv.min() / 4.0, 0.01 * (order + 1))
    if step <= 0:
        raise ValueError("step must be positive")
    if step > lv.min() / 4:
        raise ValueError(f"step {step} too large relative to min local time {lv.min()}")
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
    theta, _ = _FlowSeries(A, [((), 1.0)], tol).values(np.array(rows))
    coarse, fine = (np.array(weights) * theta).reshape(2, -1).sum(axis=1)
    value = (4.0 * fine - coarse) / 3.0
    err = abs(fine - coarse) / 3.0 + tol * max(abs(value), 1.0)
    return DensityResult(
        value=value,
        method="finite-difference",
        error_estimate=float(err),
        meta={"step": step},
    )


def local_time_density(gen: Generator, spec: RangeSpec, l, tol: float = 1e-9) -> DensityResult:
    """Evaluate the density by the route chosen before any evaluation: the
    angular quadrature when its first two sized grids fit within
    ``QUADRATURE_NODE_LIMIT`` together, the flow series otherwise."""
    lv = as_times(spec, l)
    N = _quadrature_grid(gen.submatrix(spec.range), lv, spec.range.index(spec.start), tol)
    if prod(N.tolist()) + prod(_refine(N).tolist()) <= QUADRATURE_NODE_LIMIT:
        return density_quadrature(gen, spec, lv, tol=tol)
    return density_series(gen, spec, lv, tol=tol)


def gauge_invariance_check(gen: Generator, spec: RangeSpec, l, r, tol: float = 1e-12) -> float:
    """Deviation of the density when the integrand's jump rates are
    conjugated by a positive radius vector; exactly zero in theory.

    Both series are summed through the degree the density itself needs.
    Every balanced flow's coefficient is invariant under the conjugation,
    so the two truncations agree termwise and the deviation measures
    rounding, not truncation, at any tolerance."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radius vector must be strictly positive")
    L = as_times(spec, l)[None, :]
    base = SeriesEvaluator(gen, spec, tol=tol)
    K = base._sum(L)[2]
    conj = (r[:, None] * base.B) / r[None, :]
    twisted = _FlowSeries(np.diag(base.diag) + conj, base.terms, tol)
    return float(abs(base._sum(L, degree=K)[0][0] - twisted._sum(L, degree=K)[0][0]))
