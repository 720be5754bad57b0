"""Transition kernels for local-time profiles of the one-dimensional walk,
exact samplers for them, and statistical tests of simulated profiles.

A walk started at 0 is run until its local time at a site b reaches a
level h.  Read off the local times: going inward from b the successive
values form a Markov chain on the positive half-line with a Bessel-type
transition density f; going outward (beyond b, or below 0) they form a
chain with an absorbing atom at 0.  The samplers draw from these kernels
exactly via a Poisson-Gamma mixture, and the test battery compares
simulated profiles against matched synthetic draws.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.special import i0e, i1e, kolmogorov, ndtr

from .chain import validate_generator
from .simulate import run_lockstep

__all__ = [
    "bessel_i",
    "bessel_i_scaled",
    "f_kernel",
    "PStarKernel",
    "pstar_kernel",
    "sample_f",
    "sample_pstar",
    "simulate_profiles",
    "rk_statistical_test",
    "ks_two_sample",
]


def bessel_i_scaled(order: int, z) -> np.ndarray | float:
    """e^{-z} I_order(z) for order in {0, 1}: scipy's ``i0e``/``i1e``.

    The scaled form never overflows.
    """
    if order not in (0, 1):
        raise ValueError("only orders 0 and 1 are supported")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("argument must be nonnegative")
    out = (i0e if order == 0 else i1e)(z)
    return float(out) if z.ndim == 0 else out


def bessel_i(order: int, z) -> float | np.ndarray:
    """I_order(z); overflows for z beyond ~700 (use the scaled form there)."""
    z = np.asarray(z, dtype=float)
    if np.any(z > 700):
        raise OverflowError("argument too large for the unscaled value; use bessel_i_scaled")
    return bessel_i_scaled(order, z) * np.exp(z)


def f_kernel(h1, h2):
    """Inward transition density f(h1, h2) = e^{-h1-h2} I_0(2 sqrt(h1 h2)).

    Evaluated in the overflow-safe form exp(-(sqrt(h1)-sqrt(h2))^2) times
    the scaled Bessel value.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if np.any(h1 <= 0) or np.any(h2 <= 0):
        raise ValueError("arguments must be positive")
    z = 2.0 * np.sqrt(h1 * h2)
    return np.exp(-((np.sqrt(h1) - np.sqrt(h2)) ** 2)) * bessel_i_scaled(0, z)


@dataclass(frozen=True)
class PStarKernel:
    """Outward transition kernel from level h1: an atom at 0 plus a density
    on the positive half-line."""

    h1: float
    atom: float
    density: Callable[[np.ndarray], np.ndarray]


def pstar_kernel(h1: float) -> PStarKernel:
    """Outward kernel: atom e^{-h1} at 0; density
    e^{-h1-h2} sqrt(h1/h2) I_1(2 sqrt(h1 h2)) on (0, infinity)."""
    if h1 < 0:
        raise ValueError("level must be nonnegative")
    if h1 == 0:
        return PStarKernel(h1=0.0, atom=1.0, density=lambda h2: np.zeros_like(np.asarray(h2, dtype=float)))

    def density(h2):
        h2 = np.asarray(h2, dtype=float)
        if np.any(h2 <= 0):
            raise ValueError("density is defined on positive arguments")
        z = 2.0 * np.sqrt(h1 * h2)
        return (
            np.exp(-((np.sqrt(h1) - np.sqrt(h2)) ** 2))
            * np.sqrt(h1 / h2)
            * bessel_i_scaled(1, z)
        )

    return PStarKernel(h1=float(h1), atom=float(np.exp(-h1)), density=density)


def sample_f(h1, rng: np.random.Generator, size=None):
    """Exact draw from f(h1, .): N ~ Poisson(h1), then Gamma(N + 1, 1)."""
    h1 = np.asarray(h1, dtype=float)
    if size is None:
        size = h1.shape if h1.ndim else None
    n = rng.poisson(h1, size=size)
    return rng.gamma(n + 1.0)


def sample_pstar(h1, rng: np.random.Generator, size=None):
    """Exact draw from the outward kernel: N ~ Poisson(h1); 0 if N = 0,
    else Gamma(N, 1)."""
    h1 = np.asarray(h1, dtype=float)
    if size is None:
        size = h1.shape if h1.ndim else None
    n = rng.poisson(h1, size=size)
    out = np.where(n > 0, rng.gamma(np.maximum(n, 1)), 0.0)
    return out


# ---------------------------------------------------------------------------
# 1D walk to the inverse local time


@dataclass
class ProfileBatch:
    """Local-time profiles at the inverse local time, one row per path.

    ``positions`` maps lattice sites -depth..b+depth to record columns;
    censored paths (event cap hit) are excluded from ``records``.
    """

    b: int
    h: float
    depth: int
    records: np.ndarray
    n_censored: int

    def at(self, position: int) -> np.ndarray:
        if not -self.depth <= position <= self.b + self.depth:
            raise ValueError("position outside the recorded window")
        return self.records[:, position + self.depth]


def simulate_profiles(
    b: int,
    h: float,
    n_paths: int,
    seed: int,
    depth: int = 12,
    max_events: int = 2_000_000,
) -> ProfileBatch:
    """Run walks from 0 until the local time at b reaches h and collect the
    uncensored local-time profiles on -depth .. b+depth.

    The walk jumps at rate 1 to each neighbour.  An excursion beyond the
    recorded window touches no recorded site and accrues no local time at
    b, and it re-enters through the site it left, so the window's boundary
    sites jump inward only, at rate 1: by memorylessness the recorded
    profile has exactly the law of the unrestricted walk's.  Paths that
    make ``max_events`` jumps are censored.
    """
    if b < 1 or h <= 0:
        raise ValueError("need b >= 1 and h > 0")
    width = b + 2 * depth + 1
    A = np.eye(width, k=1) + np.eye(width, k=-1)
    np.fill_diagonal(A, -A.sum(axis=1))
    walk = validate_generator(A, states=range(-depth, b + depth + 1))
    parts = run_lockstep(walk, 0, n_paths, seed, h,
                         lambda local, _, censored: (local[~censored], int(censored.sum())),
                         site=b, max_jumps=max_events)
    records = np.concatenate([p[0] for p in parts])
    records[:, b + depth] = h
    return ProfileBatch(
        b=b,
        h=float(h),
        depth=depth,
        records=records,
        n_censored=sum(p[1] for p in parts),
    )


# ---------------------------------------------------------------------------
# two-sample Kolmogorov-Smirnov


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample KS statistic and its asymptotic p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        raise ValueError("empty sample")
    allv = np.concatenate([x, y])
    cx = np.searchsorted(x, allv, side="right") / n
    cy = np.searchsorted(y, allv, side="right") / m
    d = float(np.abs(cx - cy).max())
    en = np.sqrt(n * m / (n + m))
    return d, float(kolmogorov(en * d))


# ---------------------------------------------------------------------------
# the statistical test battery


@dataclass
class TestOutcome:
    name: str
    statistic: float
    threshold: float
    p_value: float
    passed: bool


@dataclass
class RkReport:
    outcomes: list
    n_paths: int
    n_censored: int
    family_level: float
    passed: bool

    def rows(self):
        for o in self.outcomes:
            row = asdict(o)
            yield {"test": row.pop("name"), **row, "passed": int(o.passed)}


def _quantile_bins(h1: np.ndarray, min_per_bin: int = 500) -> list:
    """Split indices into quantile bins of h1 with at least min_per_bin
    entries each (degenerate h1 gives a single bin)."""
    n = len(h1)
    n_bins = max(1, min(8, n // min_per_bin))
    if np.ptp(h1) == 0:
        return [np.arange(n)]
    edges = np.quantile(h1, np.linspace(0, 1, n_bins + 1))
    edges = np.unique(edges)
    idx = np.clip(np.searchsorted(edges, h1, side="right") - 1, 0, len(edges) - 2)
    bins = [np.nonzero(idx == k)[0] for k in range(len(edges) - 1)]
    merged = []
    carry = np.array([], dtype=int)
    for bin_idx in bins:
        carry = np.concatenate([carry, bin_idx])
        if len(carry) >= min_per_bin:
            merged.append(carry)
            carry = np.array([], dtype=int)
    if len(carry):
        if merged:
            merged[-1] = np.concatenate([merged[-1], carry])
        else:
            merged.append(carry)
    return merged


def rk_statistical_test(
    b: int = 3,
    h: float = 1.0,
    n_paths: int = 100_000,
    seed: int = 0,
    family_level: float = 0.01,
    depth: int = 12,
    max_events: int = 2_000_000,
) -> RkReport:
    """Simulate walk profiles and test them against the transition kernels.

    Battery: (a) inward transitions match the f density (per-step,
    per-bin two-sample KS against matched synthetic draws); (b) outward
    transitions match the atom-plus-density kernel (atom proportion test
    and KS on the positive part); (c) homogeneity of the inward law across
    steps; (d) independence of the three profile segments via bounded
    summary cross-correlations.  P-value thresholds are Bonferroni-split
    across all KS/atom tests; correlations use the fixed 4/sqrt(n) bar.
    """
    batch = simulate_profiles(b, h, n_paths, seed, depth=depth, max_events=max_events)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xC0FFEE]))
    outcomes = []

    # (a) inward steps: position b-x -> b-x-1 for x = 0 .. b-1
    inward = []
    for x in range(b):
        h1 = batch.at(b - x)
        h2 = batch.at(b - x - 1)
        synthetic = sample_f(h1, rng)
        for j, bin_idx in enumerate(_quantile_bins(h1)):
            inward.append(
                (f"inward[{b - x}->{b - x - 1}]bin{j}", h2[bin_idx], synthetic[bin_idx])
            )

    # (b) outward steps: b -> b+1, b+1 -> b+2, and 0 -> -1
    outward_pairs = [(b, b + 1), (b + 1, b + 2), (0, -1)]
    atom_tests = []
    outward = []
    for src, dst in outward_pairs:
        h1 = batch.at(src)
        h2 = batch.at(dst)
        live = h1 > 0
        h1, h2 = h1[live], h2[live]
        if len(h1) < 1000:
            continue
        synthetic = sample_pstar(h1, rng)
        # atom frequencies: observed zeros vs synthetic zeros
        atom_tests.append((f"outward-atom[{src}->{dst}]", h2 == 0, synthetic == 0))
        pos_obs = h2[h2 > 0]
        pos_syn = synthetic[synthetic > 0]
        if len(pos_obs) >= 500 and len(pos_syn) >= 500:
            outward.append((f"outward-positive[{src}->{dst}]", pos_obs, pos_syn))

    # (c) homogeneity: the conditional-CDF transform of each inward step is
    # exactly uniform under the null, so the transforms of different steps
    # can be compared directly by two-sample KS
    homogeneity = []
    transforms = [
        _f_conditional_cdf(batch.at(b - x), batch.at(b - x - 1)) for x in range(b)
    ]
    for x in range(len(transforms) - 1):
        homogeneity.append(
            (f"homogeneity[step{x}-vs-step{x + 1}]", transforms[x], transforms[x + 1])
        )

    n_ks = len(inward) + len(outward) + len(homogeneity) + len(atom_tests)
    level = family_level / max(n_ks, 1) / 2.0  # half the budget to KS/atoms

    for name, xs, ys in inward + outward + homogeneity:
        d, p = ks_two_sample(xs, ys)
        outcomes.append(TestOutcome(name, d, level, p, p >= level))

    for name, zo, zs in atom_tests:
        p1, p2 = zo.mean(), zs.mean()
        n1, n2 = len(zo), len(zs)
        pool = (zo.sum() + zs.sum()) / (n1 + n2)
        se = np.sqrt(pool * (1 - pool) * (1 / n1 + 1 / n2))
        zstat = abs(p1 - p2) / se if se > 0 else 0.0
        pval = float(2.0 * ndtr(-zstat))
        outcomes.append(TestOutcome(name, float(zstat), level, pval, pval >= level))

    # (d) independence of segments through bounded summaries; the left
    # chain starts at the inner chain's endpoint, so for that pair we
    # correlate against its martingale increment, whose conditional mean
    # is zero under the null
    n = len(batch.records)
    inner_cols = [batch.at(b - x) for x in range(1, b + 1)]
    right_cols = [batch.at(b + x) for x in range(1, batch.depth + 1)]
    left_cols = [batch.at(-x) for x in range(1, batch.depth + 1)]
    s_inner = np.exp(-sum(inner_cols))
    s_right = np.exp(-sum(right_cols))
    s_left = np.exp(-sum(left_cols))
    left_increment = batch.at(-1) - batch.at(0)
    corr_threshold = 4.0 / np.sqrt(n)
    for name, u, v in [
        ("independence[inner,right]", s_inner, s_right),
        ("independence[right,left]", s_right, s_left),
        ("independence[inner,left-step]", s_inner, left_increment),
    ]:
        c = float(np.corrcoef(u, v)[0, 1])
        outcomes.append(TestOutcome(name, abs(c), corr_threshold, float("nan"), abs(c) <= corr_threshold))

    passed = all(o.passed for o in outcomes)
    return RkReport(
        outcomes=outcomes,
        n_paths=n,
        n_censored=batch.n_censored,
        family_level=family_level,
        passed=passed,
    )


def _f_conditional_cdf(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Conditional CDF of the inward kernel: P(next <= h2 | current = h1).

    With next = Gamma(N + 1, 1) for N ~ Poisson(h1), the event
    {Gamma(N + 1) <= h2} equals {M >= N + 1} for an independent
    M ~ Poisson(h2), so the CDF is a Skellam tail probability.
    """
    from scipy.stats import skellam

    return skellam.sf(0, np.asarray(h2, dtype=float), np.asarray(h1, dtype=float))
