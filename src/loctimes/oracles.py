"""Independent ground-truth computations.

Everything here is deliberately routed through semigroup / linear-algebra
identities rather than through the density evaluators, so the two sides can
check each other: matrix exponentials, killed transition probabilities,
inclusion-exclusion over sub-ranges, resolvent identities, the complex
Gaussian determinant identity, and quadrature over the open local-time
simplex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from .chain import Generator, RangeSpec

__all__ = [
    "matrix_exponential",
    "killed_prob",
    "range_exact_prob",
    "resolvent_check",
    "gaussian_identity_check",
    "SimplexChart",
    "IntegralResult",
    "simplex_integrate",
]

MAX_RANGE = 20  # inclusion-exclusion sums 2^(n-2) killed probabilities
# polar quadrature of the Gaussian identity at sizes 1 and 2
RADIAL_PANELS = 10
RADIAL_NODES = 24
N_ANGLES = 256
GAUSSIAN_SAMPLES = 200_000  # Monte Carlo draws of the Gaussian identity at size 3 and up
RESOLVENT_TOL = 1e-10  # relative stopping tolerance of the resolvent's time quadrature


# ---------------------------------------------------------------------------
# matrix exponential


def matrix_exponential(M, T: float = 1.0) -> np.ndarray:
    """e^{T M}: scipy's ``expm`` behind input guards.

    ``expm`` is the Pade scaling-and-squaring method of Al-Mohy & Higham
    (SIAM J. Matrix Anal. Appl. 31, 2009).  Real input gives a real
    result, complex input a complex one.
    """
    M = np.asarray(M)
    M = M.astype(np.result_type(M, float)) * T
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    norm = np.abs(M).sum(axis=0).max()
    if norm > 1e12:
        raise OverflowError(f"matrix norm {norm:.2e} too large to exponentiate")
    return expm(M)


# ---------------------------------------------------------------------------
# killed semigroups and exact range probabilities


def killed_prob(
    gen: Generator, S: Sequence[Hashable], a: Hashable, b: Hashable, T: float
) -> float:
    """Probability of running from a to b in time T without ever leaving S.

    This is the (a, b) entry of the semigroup of the rate matrix restricted
    to S with its original diagonal kept (killing happens at the original
    exit rates).
    """
    S = tuple(S)
    if a not in S or b not in S:
        raise ValueError("both endpoints must lie in S")
    sub = gen.submatrix(S)
    E = matrix_exponential(sub, T)
    return float(E[S.index(a), S.index(b)])


def range_exact_prob(gen: Generator, spec: RangeSpec, T: float) -> float:
    """Probability of ending at ``spec.end`` at time T with range exactly
    ``spec.range``, by inclusion-exclusion of killed probabilities over the
    sub-range lattice.

    Only subsets containing both endpoints contribute; the rest vanish.
    """
    R = spec.range
    if len(R) > MAX_RANGE:
        raise ValueError(f"range of size {len(R)} exceeds the 2^n capacity cap")
    a, b = spec.start, spec.end
    others = [s for s in R if s not in (a, b)]
    base = tuple({a, b})
    total = 0.0
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            S = base + extra
            total += (-1) ** (len(R) - len(S)) * killed_prob(gen, S, a, b, T)
    return total


# ---------------------------------------------------------------------------
# resolvent identity


def resolvent_check(gen: Generator, S: Sequence[Hashable], a: Hashable, b: Hashable, v) -> float:
    """Deviation between the time integral of the tilted killed semigroup and
    the corresponding linear-solve entry.

    The tilt ``v`` must have strictly negative real parts so the integral
    converges; integration uses composite Gauss panels out to where the
    semigroup has decayed below 1e-16, doubling the panel count until two
    counts agree to ``RESOLVENT_TOL``.
    """
    S = tuple(S)
    v = np.asarray(v, dtype=complex)
    if np.any(v.real >= 0):
        raise ValueError("Re v must be strictly negative")
    if a not in S or b not in S:
        raise ValueError("both endpoints must lie in S")
    sub = gen.submatrix(S).astype(complex) + np.diag(v)
    ia, ib = S.index(a), S.index(b)
    exact = np.linalg.solve(-sub, np.eye(len(S)))[ia, ib]

    lam = np.linalg.eigvals(sub).real.max()
    if lam >= 0:
        raise ValueError("tilted generator is not decaying")
    T_max = min(-np.log(1e-16) / (-lam), 1e6)

    def entry(ts):
        return np.array(
            [matrix_exponential(sub, t)[ia, ib] for t in ts], dtype=complex
        )

    nodes, weights = leggauss(16)
    panels = 8
    prev = None
    while True:
        edges = np.linspace(0.0, T_max, panels + 1)
        total = 0.0 + 0.0j
        for lo, hi in zip(edges[:-1], edges[1:]):
            ts = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            total += 0.5 * (hi - lo) * np.sum(weights * entry(ts))
        if prev is not None and abs(total - prev) < RESOLVENT_TOL * max(abs(total), 1.0):
            break
        if panels > 512:
            raise RuntimeError("time quadrature for the resolvent did not converge")
        prev = total
        panels *= 2
    return float(abs(total - exact))


# ---------------------------------------------------------------------------
# complex Gaussian determinant identity


def gaussian_identity_check(M, seed: int = 0) -> float:
    """Relative deviation of the Gaussian integral of exp(-<phi, M conj(phi)>)
    from 1/det(M).

    Sizes 1 and 2 use quadrature in polar coordinates (radii substituted by
    their square roots, which makes the integrand entire; angles by the
    periodic trapezoidal rule).  Size 3 and up uses importance-sampled Monte
    Carlo, ``GAUSSIAN_SAMPLES`` draws with the Hermitian part as the
    proposal.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("M must be square")
    H = 0.5 * (M + M.conj().T)
    eigs = np.linalg.eigvalsh(H)
    if eigs.min() <= 0:
        raise ValueError("Hermitian part of M must be positive definite")
    target = 1.0 / np.linalg.det(M)
    if n <= 2:
        value = _gaussian_quadrature(M, float(eigs.min()))
    else:
        value = _gaussian_mc(M, H, seed)
    return float(abs(value - target) / abs(target))


def _gaussian_quadrature(M, lam_min):
    n = M.shape[0]
    U = np.sqrt(50.0 / lam_min)
    gl_nodes, gl_weights = leggauss(RADIAL_NODES)
    edges = np.linspace(0.0, U, RADIAL_PANELS + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (hi - lo) * gl_nodes + 0.5 * (hi + lo)).ravel()
    w = (0.5 * (hi - lo) * gl_weights).ravel()
    if n == 1:
        # l = u^2; integrand exp(-M l) with Jacobian 2u
        vals = np.exp(-M[0, 0] * u ** 2) * 2 * u
        return np.sum(w * vals)
    # n == 2: angles enter through the difference only
    dth = np.arange(N_ANGLES) * (2 * np.pi / N_ANGLES)
    cross = M[0, 1] * np.exp(1j * dth) + M[1, 0] * np.exp(-1j * dth)
    U1, U2 = np.meshgrid(u, u, indexing="ij")
    W = np.outer(w, w) * 4 * U1 * U2
    total = 0.0 + 0.0j
    for c in cross:
        total += np.sum(W * np.exp(-(M[0, 0] * U1 ** 2 + M[1, 1] * U2 ** 2 + c * U1 * U2)))
    return total / N_ANGLES


def _real_form(H):
    """The real 2n x 2n form G with [u;v]^T G [u;v] = <phi, H conj(phi)> for
    phi = u + iv and Hermitian H."""
    return np.block([[H.real, H.imag], [-H.imag, H.real]])


def _gaussian_mc(M, H, seed):
    n = M.shape[0]
    G = _real_form(H)
    L = np.linalg.cholesky(G)
    rng = np.random.Generator(np.random.Philox(key=seed))
    xi = rng.standard_normal((GAUSSIAN_SAMPLES, 2 * n))
    # z ~ density proportional to exp(-z G z)
    z = xi @ np.linalg.inv(L) / np.sqrt(2.0)
    phi = z[:, :n] + 1j * z[:, n:]
    # remaining factor is purely a phase: <phi, (M - H) conj(phi)> is imaginary
    phase = np.einsum("ix,xy,iy->i", phi, M - H, phi.conj())
    est = np.mean(np.exp(-phase))
    # with measure du dv / pi per site, the proposal normalizes to
    # 1 / sqrt(det G) = 1 / det(H)
    return est / np.sqrt(np.linalg.det(G))


# ---------------------------------------------------------------------------
# quadrature over the open local-time simplex


@dataclass(frozen=True)
class SimplexChart:
    """Chart on the positive local-time simplex obtained by dropping one
    coordinate (default: the starting site); the surface measure is the
    plain product measure on the remaining coordinates."""

    spec: RangeSpec
    horizon: float
    dropped: Hashable | None = None

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:  # also rejects nan
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        d = self.dropped if self.dropped is not None else self.spec.start
        if d not in self.spec.range:
            raise ValueError("dropped coordinate must lie in the range")
        object.__setattr__(self, "dropped", d)

    @property
    def dim(self) -> int:
        return self.spec.size - 1

    def lift(self, chart_points: np.ndarray) -> np.ndarray:
        """Map chart coordinates (rows) to full local-time vectors ordered
        by the range."""
        chart_points = np.atleast_2d(chart_points)
        k = self.spec.range.index(self.dropped)
        full = np.empty((len(chart_points), self.spec.size))
        others = [i for i in range(self.spec.size) if i != k]
        full[:, others] = chart_points
        full[:, k] = self.horizon - chart_points.sum(axis=1)
        return full


@dataclass
class IntegralResult:
    value: float
    error_estimate: float
    n_evals: int
    mode: str


def simplex_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    chart: SimplexChart,
    resolution: int = 64,
    mode: str = "grid",
    seed: int = 0,
    n_samples: int = 200_000,
) -> IntegralResult:
    """Integrate ``f`` over the open simplex against the surface measure.

    ``f`` receives a 2-D array of local-time vectors (rows ordered by the
    range) and must return one value per row.  Grid mode tensorizes a
    midpoint rule over nested square-root-substituted coordinates (the
    substitution absorbs the inverse-square-root boundary behavior of the
    densities); the error estimate compares against the half-resolution
    rule, so ``resolution`` must be at least 4 (a coarser rule of at least
    2 points a side).  MC mode samples the simplex uniformly, at least 2
    samples for its standard error.  Raises ``ValueError`` otherwise.
    """
    if mode == "grid" and not resolution >= 4:
        raise ValueError(f"grid resolution must be at least 4, got {resolution}")
    if mode == "mc" and not n_samples >= 2:
        raise ValueError(f"need at least 2 Monte Carlo samples, got {n_samples}")
    m = chart.dim
    T = chart.horizon
    if m == 0:
        val = float(np.asarray(f(np.array([[T]])))[0])
        return IntegralResult(val, 0.0, 1, mode)
    if mode == "mc":
        rng = np.random.Generator(np.random.Philox(key=seed))
        # uniform on the simplex sum l_i < T via exponential spacings
        e = rng.standard_exponential((n_samples, m + 1))
        pts = T * e[:, :m] / e.sum(axis=1, keepdims=True)
        vals = np.asarray(f(chart.lift(pts)), dtype=float)
        volume = T ** m / float(np.prod(np.arange(1, m + 1)))
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(n_samples))
        return IntegralResult(mean * volume, se * volume, n_samples, "mc")
    if mode != "grid":
        raise ValueError(f"unknown mode {mode!r}")
    if m > 3:
        raise ValueError("grid mode supports ranges of size up to 4; use mode='mc'")
    coarse = _grid_pass(f, chart, resolution // 2)
    fine = _grid_pass(f, chart, resolution)
    return IntegralResult(fine, abs(fine - coarse), resolution ** m, "grid")


def _grid_pass(f, chart: SimplexChart, n: int) -> float:
    """Midpoint rule in nested coordinates l_i = b_{i-1} t_i^2 with
    b_i = b_{i-1}(1 - t_i^2); exact change of variables onto (0,1)^m."""
    m = chart.dim
    t = (np.arange(n) + 0.5) / n
    grids = np.meshgrid(*[t] * m, indexing="ij")
    ts = np.stack([g.ravel() for g in grids], axis=1)
    budget = np.full(len(ts), chart.horizon)
    pts = np.empty_like(ts)
    jac = np.ones(len(ts))
    for i in range(m):
        pts[:, i] = budget * ts[:, i] ** 2
        jac *= 2.0 * budget * ts[:, i]
        budget = budget - pts[:, i]
    vals = np.asarray(f(chart.lift(pts)), dtype=float)
    return float(np.sum(vals * jac) / n ** m)
