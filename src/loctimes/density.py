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
  angular integral by Richardson-extrapolated central differences
  (test-only; slowest and least accurate).

Accuracy degrades when some local time drops below ~1e-8 of the horizon; the
evaluators are meant for the open simplex only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, factorial, lgamma
from typing import Mapping

import numpy as np

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
QUADRATURE_NODE_LIMIT = 2 ** 24
LOCAL_TIME_RTOL = 1e-12


class ConvergenceError(RuntimeError):
    """Series or quadrature failed to reach the requested tolerance."""


class CapacityError(RuntimeError):
    """An enumeration exceeded its configured size limit."""


# ---------------------------------------------------------------------------
# local-time vectors


def as_times(spec: RangeSpec, l) -> np.ndarray:
    """Coerce a dict keyed by site, or a sequence in range order, to a
    positive array ordered by the range."""
    if isinstance(l, Mapping):
        if set(l) != set(spec.range):
            raise ValueError("local-time support does not match the range")
        l = [l[s] for s in spec.range]
    arr = np.asarray(l, dtype=float)
    if arr.shape != (spec.size,):
        raise ValueError(f"expected {spec.size} local times, got shape {arr.shape}")
    if np.any(arr <= 0):
        raise ValueError("all local times must be positive")
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


def _simple_cycles(size: int, longest: int) -> np.ndarray:
    """Edge-count rows (flattened ``size`` x ``size``) of the simple directed
    cycles of at most ``longest`` sites in the complete digraph on ``size``
    sites, each once, shortest first."""
    rows = []
    for length in range(2, longest + 1):
        for sites in itertools.combinations(range(size), length):
            for rest in itertools.permutations(sites[1:]):
                cycle = (sites[0],) + rest
                row = np.zeros(size * size, dtype=np.int64)
                row[[a * size + b for a, b in zip(cycle, cycle[1:] + cycle[:1])]] = 1
                rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, size * size)


class _FlowTable:
    """Balanced flows on ``size`` sites, complete through degree
    ``max_degree``, stored column-flattened for vectorized coefficient
    evaluation.

    A flow enters the series only through its coefficient and its
    monomial prod_x l_x^{deg_x/2}, where deg_x is the in + out degree at
    site x.  Flows with equal site degrees share a monomial, so the table
    also keeps the distinct site-degree rows (``powers``, halved; they are
    all even) and each flow's row in them (``monomial``).  Flows and
    monomials are both in degree order, lexicographic within a degree, so
    those of degree <= K are a prefix of each.

    ``extend`` appends one layer per degree.  Every balanced flow is a sum
    of simple directed cycles (flow decomposition), so the flows of degree
    k are those of degree k - |c| plus a cycle c, deduplicated.  A flow is
    held as a packed key of its off-diagonal counts, so adding a cycle is
    an integer add, and sorting the keys both deduplicates a layer and puts
    it in lexicographic order.  Every cycle through an edge adds at least
    2 to the degree, so no count exceeds K // 2.
    """

    _LAYERED = ("counts", "degree", "inv_factorial", "powers", "monomial", "monomial_degree")

    def __init__(self, size: int):
        self.size = size
        self.max_degree = -1
        self.counts = np.zeros((0, size * size), dtype=np.int64)
        self.degree = np.zeros(0, dtype=np.int64)
        self.inv_factorial = np.zeros(0)
        self.powers = np.zeros((0, size))
        self.monomial = np.zeros(0, dtype=np.intp)
        self.monomial_degree = np.zeros(0, dtype=np.int64)

    def extend(self, max_degree: int, limit: int = FLOW_LIMIT):
        """Append the layers through ``max_degree``.  Raises
        ``CapacityError`` when a layer would take the flow count past
        ``limit``; the layers below it are kept."""
        if max_degree <= self.max_degree:
            return
        n = self.size
        full = CapacityError(f"more than {limit} balanced flows at size={n}, degree<={max_degree}")
        # each simple cycle of at most max_degree sites is itself a flow
        longest = min(n, max_degree)
        if 1 + sum(comb(n, m) * factorial(m - 1) for m in range(2, longest + 1)) > limit:
            raise full
        off = ~np.eye(n, dtype=bool).ravel()
        bits = max(1, (max_degree // 2).bit_length())
        flows, sites = _Packing(n * (n - 1), bits), _Packing(n, bits)
        rows = _simple_cycles(n, longest)
        cycles = list(zip(flows.pack(rows[:, off]), rows.sum(axis=1)))
        keys = {}  # degree -> the layer's sorted keys
        for k in range(max(0, self.max_degree + 1 - n), self.max_degree + 1):
            lo, hi = np.searchsorted(self.degree, [k, k + 1])
            keys[k] = flows.pack(self.counts[lo:hi, off])
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
                        if total + len(layer) > limit:
                            break
                if total + len(layer) > limit:
                    raise full
                keys[k] = layer
                counts = np.zeros((len(layer), n * n), dtype=np.int64)
                counts[:, off] = flows.unpack(layer)
                sq = counts.reshape(-1, n, n)
                half = (sq.sum(axis=1) + sq.sum(axis=2)) // 2  # in + out, halved
                rows, index = _unique_rows(sites.pack(half))
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

    def monomial_coefficients(self, B: np.ndarray, K: int) -> np.ndarray:
        """Per-monomial sums of the flow coefficients prod B_xy^n_xy / n_xy!
        over the flows of degree <= K; real and imaginary parts are summed
        separately for a complex ``B``."""
        n_flows, n_monomials = self.sizes(K)
        with np.errstate(invalid="ignore"):
            powers = np.ravel(B)[None, :] ** self.counts[:n_flows]
        coeff = np.prod(powers, axis=1) * self.inv_factorial[:n_flows]
        index = self.monomial[:n_flows]
        out = np.bincount(index, weights=coeff.real, minlength=n_monomials)
        if np.iscomplexobj(coeff):
            out = out + 1j * np.bincount(index, weights=coeff.imag, minlength=n_monomials)
        return out


_LOG_FACT = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, 200)))))
_FLOW_TABLES: dict[int, _FlowTable] = {}


def _flow_table(size: int, max_degree: int, limit: int = FLOW_LIMIT) -> _FlowTable:
    """The shared table for ``size`` sites, extended through ``max_degree``."""
    if size not in _FLOW_TABLES:
        _FLOW_TABLES[size] = _FlowTable(size)
    tab = _FLOW_TABLES[size]
    tab.extend(max_degree, limit)
    return tab


# ---------------------------------------------------------------------------
# the angular integral as a flow series


def _series_degree(strength: float, tol: float, max_degree: int) -> int:
    """Smallest truncation degree whose factorial tail bound is below tol
    (relative to exp(strength), the crude magnitude of the series)."""
    target = tol * max(1.0, np.exp(min(strength, 200.0)))
    term = 1.0
    k = 0
    while k < max_degree:
        k += 1
        term *= strength / k
        if term < target and k > strength:
            break
    return min(max(k + 2, 4), max_degree)


def theta_integral_series(
    B_tilde,
    l,
    tol: float = 1e-12,
    max_degree: int = 80,
    limit: int = FLOW_LIMIT,
):
    """Evaluate the angular integral of ``exp(sum B~[x,y] sqrt(l_x l_y)
    e^{i(theta_x - theta_y)})`` as its balanced-flow power series.

    Diagonal entries contribute a plain exponential factor and are split off
    first.  Works for real or complex matrices.  Returns ``(value,
    tail_bound)``, the bound being ``_factorial_tail`` of the strength.
    """
    B = np.asarray(B_tilde)
    l = np.asarray(l, dtype=float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = B.shape[0]
    if B.shape != (n, n) or l.shape != (n,):
        raise ValueError("B_tilde must be square and match l")
    diag_factor = np.exp(np.sum(np.diag(B) * l))
    off = B.copy()
    np.fill_diagonal(off, 0.0)
    sql = np.sqrt(l)
    strength = float(np.sum(np.abs(off) * np.outer(sql, sql)))
    K = _series_degree(strength, tol, max_degree)
    tab = _flow_table(n, K, limit)
    coeff = tab.monomial_coefficients(off, K)
    value = coeff @ np.exp(tab.powers[: len(coeff)] @ np.log(l))
    err = float(_factorial_tail(strength, K))
    if not err <= tol * max(abs(value), 1.0) and K >= max_degree:
        raise ConvergenceError(f"flow series not converged at degree {K}")
    return diag_factor * value, abs(diag_factor) * err


def _factorial_tail(s: np.ndarray, K: int, q: int = 0) -> np.ndarray:
    """sum_{k>K} k^q s^k / k!, elementwise in the strengths ``s``.

    The flows of degree k sum to at most s^k / k! in absolute value (the
    multinomial expansion of s^k over all edges), and a derivative weight
    prod_{x in Q} deg_x is at most k^|Q| at degree k, since every site's
    in + out degree is at most k.  The term ratio r_k = s/(k+1) ((k+1)/k)^q
    decreases in k, so once it is below 1 the terms still to come sum to at
    most term * r / (1 - r); the sum stops when that is below rounding.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        return np.full(s.shape, np.inf)
    k = K + 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        term = np.exp(k * np.log(s) - lgamma(k + 1) + q * np.log(k))
        total = term.copy()
        while True:
            r = s / (k + 1) * ((k + 1) / k) ** q
            rest = term * r / (1.0 - r)
            done = ~np.isfinite(total) | ((r < 1.0) & (rest <= 2.0 ** -52 * total))
            if np.all(done):
                return total + np.where(np.isfinite(total), rest, 0.0)
            term = term * r
            total += term
            k += 1


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
    if N.shape[0] == 1:
        return complex(N[0, 0]) if np.iscomplexobj(N) else float(N[0, 0])
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


class SeriesEvaluator:
    """Flow-series density evaluator, reusable across many local-time
    vectors on the same (generator, range) pair.

    ``integrand_matrix`` optionally replaces the jump-rate matrix inside the
    angular integral (the derivative operator always keeps the original
    rates); this is how the radius-conjugation identity is exercised.

    The series is summed over monomials: the flow coefficients are
    aggregated once per truncation degree and cached.
    """

    def __init__(
        self,
        gen: Generator,
        spec: RangeSpec,
        tol: float = 1e-10,
        max_degree: int = 80,
        flow_limit: int = FLOW_LIMIT,
        integrand_matrix=None,
    ):
        idx = gen.indices(spec.range)
        A = gen.rates[np.ix_(idx, idx)]
        self.diag = np.diag(gen.rates)[idx]
        self.B = A - np.diag(np.diag(A))
        self.size = spec.size
        self.tol = tol
        self.max_degree = max_degree
        self.flow_limit = flow_limit
        a_pos = spec.range.index(spec.start)
        b_pos = spec.range.index(spec.end)
        self.terms = [
            (list(Q), det) for Q, det in _derivative_expansion(self.B, a_pos, b_pos) if det != 0.0
        ]
        Bint = self.B if integrand_matrix is None else integrand_matrix
        self.Bint = np.asarray(Bint, dtype=float)
        if self.Bint.shape != (self.size, self.size):
            raise ValueError("integrand matrix shape mismatch")
        self._weights: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}

    def _monomial_weights(self, K: int):
        """Halved site degrees of the monomials of degree <= K, and per
        monomial and term of the derivative expansion, the aggregated
        coefficient times the derivative weight prod_{x in Q} deg_x."""
        if K not in self._weights:
            tab = _flow_table(self.size, K, self.flow_limit)
            coeff = tab.monomial_coefficients(self.Bint, K)
            powers = tab.powers[: len(coeff)]
            W = np.empty((len(coeff), len(self.terms)))
            for j, (Q, _) in enumerate(self.terms):
                W[:, j] = coeff * np.prod(2.0 * powers[:, Q], axis=1)
            self._weights[K] = (powers, W, tab.sizes(K)[0])
        return self._weights[K]

    def _strengths(self, L: np.ndarray) -> np.ndarray:
        sql = np.sqrt(L)
        return np.einsum("xy,ix,iy->i", np.abs(self.Bint), sql, sql)

    def _evaluate(self, L: np.ndarray, strengths: np.ndarray, K: int, chunk: int | None):
        """Values at the rows of ``L`` truncated at degree K, with each
        row's factorial tail bound; raises when the degree is at its cap
        and some row's bound exceeds tol times its value."""
        powers, W, _ = self._monomial_weights(K)
        if chunk is None:
            # keep the (chunk, monomials) working array near 128 MB
            chunk = max(32, int(16_000_000 // max(len(powers), 1)))
        prefactor = np.exp(L @ self.diag)
        # per row and term: det times the factors 1/(2 l_x) of the derivatives
        scale = np.empty((len(L), len(self.terms)))
        bound = np.zeros(len(L))
        tails: dict[int, np.ndarray] = {}
        for j, (Q, det) in enumerate(self.terms):
            scale[:, j] = det * np.prod(0.5 / L[:, Q], axis=1)
            if len(Q) not in tails:
                tails[len(Q)] = _factorial_tail(strengths, K, len(Q))
            bound += np.abs(scale[:, j]) * tails[len(Q)]
        out = np.empty(len(L))
        # one (chunk, monomials) buffer, reused by every block
        buf = np.empty((min(chunk, len(L)), len(powers)))
        for lo in range(0, len(L), chunk):
            block = L[lo : lo + chunk]
            P = np.matmul(np.log(block), powers.T, out=buf[: len(block)])
            np.exp(P, out=P)
            out[lo : lo + chunk] = np.einsum("ij,ij->i", P @ W, scale[lo : lo + chunk])
        out *= prefactor
        err = prefactor * bound
        # written so that a nan error (overflowed tail) also raises
        if K >= self.max_degree and not np.all(err <= self.tol * np.abs(out)):
            raise ConvergenceError(f"flow series not converged at degree {K}")
        return out, err

    def _point(self, l):
        L = np.asarray(l, dtype=float)[None, :]
        strengths = self._strengths(L)
        K = _series_degree(float(strengths[0]), self.tol, self.max_degree)
        out, err = self._evaluate(L, strengths, K, None)
        return float(out[0]), float(err[0]), K

    def value(self, l: np.ndarray):
        """Value at one local-time vector and its factorial tail bound."""
        return self._point(l)[:2]

    def values(self, L: np.ndarray, chunk: int | None = None):
        """Vectorized evaluation over rows of ``L`` (each a local-time vector).

        Returns the values and each row's factorial tail bound, truncated
        at one degree chosen for the largest strength.  Raises
        ``ConvergenceError`` when that degree reaches ``max_degree`` and
        some row's bound exceeds ``tol`` times its value, the test
        ``value`` applies.
        """
        L = np.asarray(L, dtype=float)
        strengths = self._strengths(L)
        K = _series_degree(float(strengths.max()), self.tol * 1e-2, self.max_degree)
        return self._evaluate(L, strengths, K, chunk)


def density_series(
    gen: Generator,
    spec: RangeSpec,
    l,
    tol: float = 1e-10,
    integrand_matrix=None,
) -> DensityResult:
    """Flow-series evaluation of the local-time density."""
    lv = as_times(spec, l)
    ev = SeriesEvaluator(gen, spec, tol=tol, integrand_matrix=integrand_matrix)
    value, err, K = ev._point(lv)
    powers, _, flows = ev._monomial_weights(K)
    return DensityResult(
        value=value,
        method="series",
        error_estimate=err,
        meta={"tol": tol, "range_size": spec.size, "degree": K, "flows": flows,
              "monomials": len(powers)},
    )


def density_quadrature(
    gen: Generator,
    spec: RangeSpec,
    l,
    grid_points_per_angle: int = 16,
    tol: float = 1e-9,
    max_points_per_angle: int = 1024,
) -> DensityResult:
    """Derivative-free evaluation: complex cofactor determinant times the
    oscillatory exponential, integrated by a periodic trapezoidal rule with
    the starting site's angle pinned to zero.

    Node counts double until two successive grids agree, each doubling
    evaluating only the nodes it adds; the surviving imaginary part is
    folded into the error estimate.  A grid of more than
    ``QUADRATURE_NODE_LIMIT`` nodes raises ``ConvergenceError`` before
    anything is allocated.
    """
    if grid_points_per_angle < 4:
        raise ValueError("need at least 4 grid points per angle")
    lv = as_times(spec, l)
    idx = gen.indices(spec.range)
    A = gen.rates[np.ix_(idx, idx)]
    B = A - np.diag(np.diag(A))
    n = spec.size
    a_pos = spec.range.index(spec.start)
    b_pos = spec.range.index(spec.end)
    if n == 1:
        value = float(np.exp(A[0, 0] * lv[0]))
        return DensityResult(value, "quadrature", 0.0, {"nodes_per_angle": 0})
    m = n - 1
    sql = np.sqrt(lv)
    ratio = np.sqrt(np.outer(lv, 1.0 / lv)).T  # ratio[x, z] = sqrt(l_z / l_x)
    cols = [k for k in range(n) if k != a_pos]

    def node_sum(N: int, new_only: bool) -> complex:
        """Sum of the integrand over the N-point grid per angle, generated
        in chunks from a flat index; with ``new_only``, over the nodes that
        the N/2 grid (all-even indices) does not contain."""
        total = 0.0 + 0.0j
        for lo in range(0, N ** m, 65536):
            ijk = np.stack(np.unravel_index(np.arange(lo, min(lo + 65536, N ** m)), (N,) * m),
                           axis=1)
            if new_only:
                ijk = ijk[np.any(ijk % 2 == 1, axis=1)]
            th = np.zeros((len(ijk), n))
            th[:, cols] = ijk * (2 * np.pi / N)
            phase = np.exp(1j * (th[:, :, None] - th[:, None, :]))
            expo = np.exp(np.einsum("xy,ixy->i", A * np.outer(sql, sql), phase))
            pot = np.einsum("xz,ixz->ix", B * ratio, phase)
            D = np.broadcast_to(-B, (th.shape[0], n, n)).astype(complex).copy()
            D[:, np.arange(n), np.arange(n)] += pot
            D[:, b_pos, :] = 0.0
            D[:, :, a_pos] = 0.0
            D[:, b_pos, a_pos] = 1.0
            total += np.sum(np.linalg.det(D) * expo)
        return total

    N, S, prev = grid_points_per_angle, 0.0 + 0.0j, None
    while True:
        if N ** m > QUADRATURE_NODE_LIMIT:
            raise ConvergenceError(
                f"quadrature not converged within {QUADRATURE_NODE_LIMIT} nodes "
                f"({N} per angle over {m} angles)")
        S += node_sum(N, new_only=prev is not None)
        cur = S / N ** m
        if prev is not None:
            diff = abs(cur - prev)
            if diff < tol * max(abs(cur), 1.0) or N >= max_points_per_angle:
                break
        prev = cur
        N *= 2
    err = diff + abs(cur.imag)
    return DensityResult(
        value=float(cur.real),
        method="quadrature",
        error_estimate=float(err),
        meta={"nodes_per_angle": N, "nodes": N ** m},
    )


def density_finite_difference(
    gen: Generator,
    spec: RangeSpec,
    l,
    step: float | None = None,
    tol: float = 1e-10,
) -> DensityResult:
    """Apply the cofactor-determinant operator (full rates, including the
    diagonal) to the angular integral by mixed central differences, with
    Richardson extrapolation over step halving.

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
    idx = gen.indices(spec.range)
    A = gen.rates[np.ix_(idx, idx)]
    a_pos = spec.range.index(spec.start)
    b_pos = spec.range.index(spec.end)
    terms = _derivative_expansion(A, a_pos, b_pos)

    def theta(point: np.ndarray) -> float:
        val, _ = theta_integral_series(A, point, tol=tol)
        return float(np.real(val))

    def mixed(Q, h: float) -> float:
        if not Q:
            return theta(lv)
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=len(Q)):
            point = lv.copy()
            for s, x in zip(signs, Q):
                point[x] += s * h / 2
            total += np.prod(signs) * theta(point)
        return total / h ** len(Q)

    def assemble(h: float) -> float:
        return sum(det * mixed(Q, h) for Q, det in terms if det != 0.0)

    coarse = assemble(step)
    fine = assemble(step / 2)
    value = (4.0 * fine - coarse) / 3.0
    err = abs(fine - coarse) / 3.0 + tol * max(abs(value), 1.0)
    return DensityResult(
        value=value,
        method="finite-difference",
        error_estimate=float(err),
        meta={"step": step},
    )


def local_time_density(gen: Generator, spec: RangeSpec, l, tol: float = 1e-9) -> DensityResult:
    """Evaluate the density by the preferred route: the flow series for
    small or weakly coupled ranges, the angular quadrature otherwise."""
    lv = as_times(spec, l)
    idx = gen.indices(spec.range)
    B = gen.off_diagonal()[np.ix_(idx, idx)]
    sql = np.sqrt(lv)
    strength = float(np.sum(np.abs(B) * np.outer(sql, sql)))
    if spec.size <= 6 or strength < 10.0:
        try:
            return density_series(gen, spec, lv, tol=tol)
        except (ConvergenceError, CapacityError):
            pass
    return density_quadrature(gen, spec, lv, tol=tol)


def gauge_invariance_check(gen: Generator, spec: RangeSpec, l, r, tol: float = 1e-12) -> float:
    """Deviation of the density when the integrand's jump rates are
    conjugated by a positive radius vector; exactly zero in theory.

    Both series truncate at the same degree with termwise-equal
    coefficients, so the deviation measures rounding, not truncation,
    at any tolerance."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radius vector must be strictly positive")
    lv = as_times(spec, l)
    idx = gen.indices(spec.range)
    B = gen.off_diagonal()[np.ix_(idx, idx)]
    conj = (r[:, None] * B) / r[None, :]
    base = density_series(gen, spec, lv, tol=tol)
    twisted = density_series(gen, spec, lv, tol=tol, integrand_matrix=conj)
    return abs(base.value - twisted.value)
