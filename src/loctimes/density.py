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
from math import factorial
from typing import Hashable, Mapping, Sequence

import numpy as np

from .chain import Generator, RangeSpec

__all__ = [
    "BalancedFlow",
    "DensityResult",
    "LocalTimeVector",
    "enumerate_balanced_flows",
    "theta_integral_series",
    "density_series",
    "density_quadrature",
    "density_finite_difference",
    "local_time_density",
    "gauge_invariance_check",
    "SeriesEvaluator",
]

FLOW_LIMIT = 2_000_000
LOCAL_TIME_RTOL = 1e-12


class ConvergenceError(RuntimeError):
    """Series or quadrature failed to reach the requested tolerance."""


class CapacityError(RuntimeError):
    """An enumeration exceeded its configured size limit."""


# ---------------------------------------------------------------------------
# local-time vectors


@dataclass(frozen=True)
class LocalTimeVector:
    """Positive occupation times on a range, summing to the horizon."""

    times: dict[Hashable, float]
    horizon: float = field(init=False)

    def __post_init__(self):
        vals = np.array(list(self.times.values()), dtype=float)
        if np.any(vals <= 0):
            raise ValueError("all local times must be positive")
        total = float(vals.sum())
        object.__setattr__(self, "horizon", total)

    def on(self, spec: RangeSpec) -> np.ndarray:
        if set(self.times) != set(spec.range):
            raise ValueError("local-time support does not match the range")
        return np.array([self.times[s] for s in spec.range], dtype=float)


def as_times(spec: RangeSpec, l) -> np.ndarray:
    """Coerce dict / LocalTimeVector / sequence to an array ordered by the range."""
    if isinstance(l, LocalTimeVector):
        return l.on(spec)
    if isinstance(l, Mapping):
        return LocalTimeVector(dict(l)).on(spec)
    arr = np.asarray(l, dtype=float)
    if arr.shape != (spec.size,):
        raise ValueError(f"expected {spec.size} local times, got shape {arr.shape}")
    if np.any(arr <= 0):
        raise ValueError("all local times must be positive")
    return arr


# ---------------------------------------------------------------------------
# balanced flows


@dataclass(frozen=True)
class BalancedFlow:
    """Nonnegative integer edge counts with zero net divergence at every site."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = np.array(self.counts, dtype=int)
        if n.ndim != 2 or n.shape[0] != n.shape[1]:
            raise ValueError("counts must be square")
        if np.any(n < 0) or np.any(np.diag(n) != 0):
            raise ValueError("counts must be nonnegative with zero diagonal")
        if np.any(n.sum(axis=1) != n.sum(axis=0)):
            raise ValueError("flow is not balanced")

    @property
    def degree(self) -> int:
        return int(np.sum(self.counts))


class _FlowTable:
    """Enumerated balanced flows on ``size`` sites up to a total degree,
    stored column-flattened for vectorized coefficient evaluation."""

    def __init__(self, size: int, max_degree: int, limit: int):
        mats = _enumerate_matrices(size, max_degree, limit)
        counts = np.array(mats, dtype=np.int64).reshape(len(mats), size * size)
        order = np.lexsort(tuple(counts[:, k] for k in range(size * size - 1, -1, -1)))
        order = order[np.argsort(counts[order].sum(axis=1), kind="stable")]
        counts = counts[order]
        self.size = size
        self.max_degree = max_degree
        self.counts = counts
        self.degree = counts.sum(axis=1)
        sq = counts.reshape(-1, size, size)
        self.site_degree = sq.sum(axis=1) + sq.sum(axis=2)  # in + out at each site
        self.inv_factorial = np.exp(
            -np.sum(_LOG_FACT[counts], axis=1)
        )

    def coefficients(self, B_flat: np.ndarray) -> np.ndarray:
        """Per-flow products of matrix-entry powers over factorials."""
        with np.errstate(invalid="ignore"):
            powers = B_flat[None, :] ** self.counts
        return np.prod(powers, axis=1) * self.inv_factorial


_LOG_FACT = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, 200)))))
_FLOW_CACHE: dict[tuple[int, int], _FlowTable] = {}


def _flow_table(size: int, max_degree: int, limit: int = FLOW_LIMIT) -> _FlowTable:
    for (s, d), tab in _FLOW_CACHE.items():
        if s == size and d >= max_degree:
            return tab
    tab = _FlowTable(size, max_degree, limit)
    _FLOW_CACHE[(size, max_degree)] = tab
    # drop smaller tables for the same size
    for key in [k for k in _FLOW_CACHE if k[0] == size and k[1] < max_degree]:
        del _FLOW_CACHE[key]
    return tab


def _enumerate_matrices(size: int, max_degree: int, limit: int) -> list:
    """All balanced nonnegative integer matrices (zero diagonal) with total
    degree at most ``max_degree``, via row-wise depth-first search.

    Rows are filled in order; once a row is complete its sum is final, and
    the remaining column deficit of completed rows prunes the search.  The
    last row is forced by the column deficits.
    """
    if size == 1 or max_degree == 0:
        return [np.zeros((size, size), dtype=int)]
    out: list[np.ndarray] = []
    mat = np.zeros((size, size), dtype=int)
    rowsum = np.zeros(size, dtype=int)
    colsum = np.zeros(size, dtype=int)

    def fill_row(i: int, j: int, used: int):
        if len(out) > limit:
            raise CapacityError(
                f"more than {limit} balanced flows at size={size}, degree<={max_degree}"
            )
        if i == size - 1:
            # forced: last row must exactly cover the remaining column deficits
            need = rowsum[:size - 1] - colsum[:size - 1]
            total = int(need.sum())
            if np.any(need < 0) or used + total > max_degree:
                return
            if total != colsum[size - 1]:
                return
            mat[size - 1, : size - 1] = need
            out.append(mat.copy())
            mat[size - 1, : size - 1] = 0
            return
        if j == size:
            # row i complete; its sum is final
            if colsum[i] > rowsum[i]:
                return
            deficit = sum(
                max(0, int(rowsum[k] - colsum[k])) for k in range(i + 1)
            )
            if used + deficit > max_degree:
                return
            fill_row(i + 1, 0, used)
            return
        if j == i:
            fill_row(i, j + 1, used)
            return
        for v in range(max_degree - used + 1):
            mat[i, j] = v
            rowsum[i] += v
            colsum[j] += v
            fill_row(i, j + 1, used + v)
            mat[i, j] = 0
            rowsum[i] -= v
            colsum[j] -= v

    fill_row(0, 0, 0)
    return out


def enumerate_balanced_flows(
    range_size: int, max_degree: int, limit: int = FLOW_LIMIT
) -> list[BalancedFlow]:
    """All balanced flows on ``range_size`` sites with degree <= ``max_degree``,
    each exactly once, in a deterministic (degree-major) order."""
    if range_size < 1:
        raise ValueError("range_size must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    tab = _flow_table(range_size, max_degree, limit)
    keep = tab.degree <= max_degree
    return [
        BalancedFlow(tuple(map(tuple, c.reshape(range_size, range_size))))
        for c in tab.counts[keep]
    ]


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
    truncation_estimate)``.
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
    keep = tab.degree <= K
    deg = tab.degree[keep]
    coeff = tab.coefficients(off.ravel())[keep]
    mono = np.exp(tab.site_degree[keep] @ (0.5 * np.log(l)))
    terms = coeff * mono
    shells = np.bincount(deg, weights=np.real(terms), minlength=K + 1)
    if np.iscomplexobj(terms):
        shells = shells + 1j * np.bincount(deg, weights=np.imag(terms), minlength=K + 1)
    value = shells.sum()
    err = _tail_estimate(np.abs(shells), strength, K)
    if err > tol * max(abs(value), 1.0) and K >= max_degree:
        raise ConvergenceError(
            f"flow series not converged at degree {K} (tail ~ {err:.2e})"
        )
    return diag_factor * value, abs(diag_factor) * err


def _tail_estimate(abs_shells: np.ndarray, strength: float, K: int) -> float:
    """Geometric extrapolation of the remaining shells past degree K."""
    last = abs_shells[-1]
    prev = abs_shells[-2] if len(abs_shells) > 1 else 0.0
    ratio = min(last / prev if prev > 0 else strength / (K + 1), 0.9)
    if last == 0.0:
        # factorial tail bound from the full-strength series
        t = strength ** (K + 1) / factorial(min(K + 1, 170))
        return float(t)
    return float(last * ratio / (1.0 - ratio) + last)


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
        self.terms = _derivative_expansion(self.B, a_pos, b_pos)
        self.Bint = self.B if integrand_matrix is None else np.asarray(integrand_matrix)
        if self.Bint.shape != (self.size, self.size):
            raise ValueError("integrand matrix shape mismatch")

    def _prepare(self, strength: float, extra_tol: float = 1.0):
        K = _series_degree(strength, self.tol * extra_tol, self.max_degree)
        tab = _flow_table(self.size, K, self.flow_limit)
        keep = tab.degree <= K
        deg = tab.degree[keep]
        site_degree = tab.site_degree[keep]
        coeff = tab.coefficients(self.Bint.ravel().astype(float))[keep]
        return K, deg, site_degree, coeff

    def value(self, l: np.ndarray):
        l = np.asarray(l, dtype=float)
        sql = np.sqrt(l)
        strength = float(np.sum(np.abs(self.Bint) * np.outer(sql, sql)))
        K, deg, site_degree, coeff = self._prepare(strength)
        mono = coeff * np.exp(site_degree @ (0.5 * np.log(l)))
        shells = np.zeros(K + 1)
        for Q, det in self.terms:
            if det == 0.0:
                continue
            w = mono * np.prod(site_degree[:, Q], axis=1) if Q else mono
            scale = det * float(np.prod(0.5 / l[list(Q)])) if Q else det
            shells += scale * np.bincount(deg, weights=w, minlength=K + 1)
        prefactor = float(np.exp(np.sum(self.diag * l)))
        value = prefactor * shells.sum()
        # derivative weights inflate the tail by at most (degree / min l) per site
        worst = max(
            (np.prod([K / l[x] for x in Q]) * abs(det) if Q else abs(det))
            for Q, det in self.terms
        )
        err = prefactor * _tail_estimate(np.abs(shells), strength, K) + prefactor * worst * (
            strength ** (K + 1) / factorial(min(K + 1, 170))
        )
        if err > max(self.tol * max(abs(value), 1e-300), 1e-13) and K >= self.max_degree:
            raise ConvergenceError(f"density series stalled at degree {K}")
        return value, err

    def values(self, L: np.ndarray, chunk: int | None = None):
        """Vectorized evaluation over rows of ``L`` (each a local-time vector).

        Returns the values and each row's factorial tail bound.  Raises
        ``ConvergenceError`` when the degree reaches ``max_degree`` and some
        row's tail, times its diagonal prefactor, exceeds the tolerance
        that ``value`` applies.
        """
        L = np.asarray(L, dtype=float)
        sql = np.sqrt(L)
        strengths = np.einsum("xy,ix,iy->i", np.abs(self.Bint), sql, sql)
        K, _, site_degree, coeff = self._prepare(float(strengths.max()), extra_tol=1e-2)
        half_deg = 0.5 * site_degree
        q_coeffs = []
        for Q, det in self.terms:
            w = coeff * np.prod(site_degree[:, Q], axis=1) if Q else coeff
            q_coeffs.append((Q, det, w))
        if chunk is None:
            # keep the (chunk, flows) working array near 128 MB
            chunk = max(32, int(16_000_000 // max(len(coeff), 1)))
        prefactor = np.exp(L @ self.diag)
        out = np.empty(len(L))
        for lo in range(0, len(L), chunk):
            block = L[lo : lo + chunk]
            P = np.log(block) @ half_deg.T
            np.exp(P, out=P)
            acc = np.zeros(len(block))
            for Q, det, w in q_coeffs:
                if det == 0.0:
                    continue
                part = P @ w
                if Q:
                    part = part * np.prod(0.5 / block[:, list(Q)], axis=1) * det
                else:
                    part = part * det
                acc += part
            out[lo : lo + chunk] = acc * prefactor[lo : lo + chunk]
        tail = strengths ** (K + 1) / factorial(min(K + 1, 170))
        if K >= self.max_degree:
            err = prefactor * tail
            # written so that a nan error (overflowed tail) also raises
            if not np.all(err <= np.maximum(self.tol * np.abs(out), 1e-13)):
                raise ConvergenceError(
                    f"density series truncated at degree {K} (tail ~ {np.nanmax(err):.2e})"
                )
        return out, tail


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
    value, err = ev.value(lv)
    return DensityResult(
        value=value,
        method="series",
        error_estimate=err,
        meta={"tol": tol, "range_size": spec.size},
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

    Node counts double until two successive grids agree; the surviving
    imaginary part is folded into the error estimate.
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
    sql = np.sqrt(lv)
    ratio = np.sqrt(np.outer(lv, 1.0 / lv)).T  # ratio[x, z] = sqrt(l_z / l_x)

    def integrate(N: int) -> complex:
        grids = np.meshgrid(
            *[np.arange(N) * (2 * np.pi / N) for _ in range(n - 1)], indexing="ij"
        )
        theta = np.zeros((N ** (n - 1), n))
        cols = [k for k in range(n) if k != a_pos]
        for c, g in zip(cols, grids):
            theta[:, c] = g.ravel()
        total = 0.0 + 0.0j
        for lo in range(0, theta.shape[0], 65536):
            th = theta[lo : lo + 65536]
            phase = np.exp(1j * (th[:, :, None] - th[:, None, :]))
            expo = np.exp(np.einsum("xy,ixy->i", A * np.outer(sql, sql), phase))
            pot = np.einsum("xz,ixz->ix", B * ratio, phase)
            D = np.broadcast_to(-B, (th.shape[0], n, n)).astype(complex).copy()
            D[:, np.arange(n), np.arange(n)] += pot
            D[:, b_pos, :] = 0.0
            D[:, :, a_pos] = 0.0
            D[:, b_pos, a_pos] = 1.0
            total += np.sum(np.linalg.det(D) * expo)
        return total / theta.shape[0]

    N = grid_points_per_angle
    prev = integrate(N)
    while True:
        N *= 2
        cur = integrate(N)
        diff = abs(cur - prev)
        if diff < tol * max(abs(cur), 1.0) or N >= max_points_per_angle:
            break
        prev = cur
    err = diff + abs(cur.imag)
    return DensityResult(
        value=float(cur.real),
        method="quadrature",
        error_estimate=float(err),
        meta={"nodes_per_angle": N},
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
