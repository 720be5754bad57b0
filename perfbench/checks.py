"""Correctness checks of the benchmark, as pure functions of numbers.

Each workload computes its reference values apart from the code it times
(matrix exponentials, closed forms, Monte Carlo standard errors,
brute-force grids) and hands them here.  The self-tests feed the same
functions perturbed inputs to show that every check can fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MARGINAL_ERRORS = 3.0  # grid marginal vs exact, in units of the grid's own error estimate
MC_SE = 5.0  # Monte Carlo estimate vs exact, in standard errors
CHI_RTOL = 1e-8  # zero-functional chi_discrete vs the lattice eigenvalue
CLOSED_FORM_RTOL = 1e-8  # two-state series vs the Bessel closed form
SYMMETRIC_ATOL = 1e-8  # rate_function_general vs rate_function_symmetric
GRID_ATOL = 1e-9  # descent inner value may exceed a brute-force grid minimum by this


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def marginal(value: float, error_estimate: float, exact: float) -> Check:
    """Grid integral of the density against the exact range probability."""
    gap = abs(value - exact)
    return Check("marginal", gap <= MARGINAL_ERRORS * error_estimate,
                 f"|{value:.10g} - {exact:.10g}| = {gap:.3g}"
                 f" vs {MARGINAL_ERRORS:g} x {error_estimate:.3g}")


def evaluators_agree(values, errors) -> tuple[Check, float]:
    """Series, quadrature and finite differences agree within their summed
    error estimates; returns the check and spread / budget."""
    spread = max(values) - min(values)
    budget = float(sum(errors))
    ratio = spread / budget if budget > 0 else np.inf
    return Check("evaluators agree", ratio <= 1.0,
                 f"spread {spread:.3g} over budget {budget:.3g}"), ratio


def relative(name: str, got: float, want: float, rtol: float) -> Check:
    rel = abs(got - want) / abs(want)
    return Check(name, rel <= rtol, f"{got:.15g} vs {want:.15g}, rel {rel:.3g} (tol {rtol:g})")


def absolute(name: str, got: float, want: float, atol: float) -> Check:
    gap = abs(got - want)
    return Check(name, gap <= atol, f"{got:.15g} vs {want:.15g}, gap {gap:.3g} (tol {atol:g})")


def identical(name: str, a, b) -> Check:
    return Check(name, a == b, f"{a!r} vs {b!r}")


def two_state_density(p: float, q: float, l1: float, l2: float) -> float:
    """Density of local times (l1, l2) on {range {0, 1}, 0 -> 1} for the
    generator [[-p, p], [q, -q]]: p e^{-p l1 - q l2} I0(2 sqrt(p q l1 l2))."""
    from scipy.special import i0

    return float(p * np.exp(-p * l1 - q * l2) * i0(2.0 * np.sqrt(p * q * l1 * l2)))


def binomial_se(p: float, n: int) -> float:
    """Standard error of an event frequency over n independent paths when
    the event's probability is p."""
    return float(np.sqrt(p * (1.0 - p) / n))


def mc_z(name: str, mean: float, std_error: float, exact: float) -> tuple[Check, float]:
    z = abs(mean - exact) / std_error
    return Check(name, z <= MC_SE, f"{mean:.6g} vs {exact:.6g}, |z| {z:.2f}"), z


def lattice_eigenvalue(n: int, radius: float, dim: int) -> float:
    """Zero-functional value of chi_discrete: alpha^2 d (1 - cos(pi/(n+1)))
    with alpha = (n+1) / (2 radius), the lowest eigenvalue of the scaled
    Dirichlet lattice energy."""
    alpha_sq = ((n + 1) / (2.0 * radius)) ** 2
    return alpha_sq * dim * (1.0 - np.cos(np.pi / (n + 1)))


def at_least(name: str, got: float, floor: float) -> Check:
    return Check(name, got >= floor, f"{got:.10g} >= {floor:.10g}")


def at_most(name: str, got: float, ceiling: float) -> Check:
    return Check(name, got <= ceiling, f"{got:.12g} <= {ceiling:.12g}")


def in_ball(mu, center, radius: float, tol: float = 1e-9) -> Check:
    mu = np.asarray(mu, dtype=float)
    dist = float(np.linalg.norm(mu - np.asarray(center)))
    ok = bool(np.all(mu >= -tol) and abs(mu.sum() - 1.0) <= tol and dist <= radius + tol)
    return Check("minimizer in ball", ok,
                 f"distance {dist:.6g} vs radius {radius:.6g}, sum {mu.sum():.12g}")
