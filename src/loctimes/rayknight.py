"""Transition kernels for local-time profiles of the one-dimensional walk,
and a statistical test of simulated profiles against them.

A walk started at 0 is run until its local time at a site b reaches a
level h.  Read off the local times: going inward from b the successive
values form a Markov chain on the positive half-line with a Bessel-type
transition density f; going outward (beyond b, or below 0) they form a
chain with an absorbing atom at 0.  Both kernels are Poisson-Gamma
mixtures, so their conditional CDFs are Skellam tails, and the test
battery checks each simulated transition against its exact law.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.special import i0e, i1e, kolmogorov, ndtr

from .chain import validate_generator
from .simulate import run_lockstep

__all__ = [
    "f_kernel",
    "PStarKernel",
    "pstar_kernel",
    "simulate_profiles",
    "rk_statistical_test",
]

# jumps after which a walk is censored; read at call time
MAX_EVENTS = 2_000_000


def f_kernel(h1, h2):
    """Inward transition density f(h1, h2) = e^{-h1-h2} I_0(2 sqrt(h1 h2)).

    Evaluated in the overflow-safe form exp(-(sqrt(h1)-sqrt(h2))^2) times
    the scaled Bessel value ``i0e``.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if not np.all((h1 > 0) & (h1 < np.inf) & (h2 > 0) & (h2 < np.inf)):
        raise ValueError("arguments must be positive and finite")
    return np.exp(-((np.sqrt(h1) - np.sqrt(h2)) ** 2)) * i0e(2.0 * np.sqrt(h1 * h2))


@dataclass(frozen=True)
class PStarKernel:
    """Outward transition kernel from level h1: an atom at 0 plus a density
    on the positive half-line."""

    h1: float
    atom: float
    density: Callable[[np.ndarray], np.ndarray]


def pstar_kernel(h1: float) -> PStarKernel:
    """Outward kernel: atom e^{-h1} at 0; density
    e^{-h1-h2} sqrt(h1/h2) I_1(2 sqrt(h1 h2)) on (0, infinity), which is
    zero at h1 = 0."""
    if not 0 <= h1 < np.inf:
        raise ValueError("level must be nonnegative and finite")

    def density(h2):
        h2 = np.asarray(h2, dtype=float)
        if not np.all((h2 > 0) & (h2 < np.inf)):
            raise ValueError("density is defined on positive, finite arguments")
        return (
            np.exp(-((np.sqrt(h1) - np.sqrt(h2)) ** 2))
            * np.sqrt(h1 / h2)
            * i1e(2.0 * np.sqrt(h1 * h2))
        )

    return PStarKernel(h1=float(h1), atom=float(np.exp(-h1)), density=density)


# ---------------------------------------------------------------------------
# 1D walk to the inverse local time


@dataclass
class ProfileBatch:
    """Local-time profiles at the inverse local time, one row per path.

    ``positions`` maps lattice sites -depth..b+depth to record columns;
    censored paths (``MAX_EVENTS`` jumps) are excluded from ``records``.
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


def simulate_profiles(b: int, h: float, n_paths: int, seed: int, depth: int = 12) -> ProfileBatch:
    """Run walks from 0 until the local time at b reaches h and collect the
    uncensored local-time profiles on -depth .. b+depth.

    The walk jumps at rate 1 to each neighbour.  An excursion beyond the
    recorded window touches no recorded site and accrues no local time at
    b, and it re-enters through the site it left, so the window's boundary
    sites jump inward only, at rate 1: by memorylessness the recorded
    profile has exactly the law of the unrestricted walk's.  Paths that
    make ``MAX_EVENTS`` jumps are censored.
    """
    if b < 1 or h <= 0:
        raise ValueError("need b >= 1 and h > 0")
    if depth < 0:
        raise ValueError(f"need depth >= 0, got depth={depth}")
    width = b + 2 * depth + 1
    A = np.eye(width, k=1) + np.eye(width, k=-1)
    np.fill_diagonal(A, -A.sum(axis=1))
    walk = validate_generator(A, states=range(-depth, b + depth + 1))
    parts = run_lockstep(walk, 0, n_paths, seed, h,
                         lambda local, _, censored: (local[~censored], int(censored.sum())),
                         site=b, max_jumps=MAX_EVENTS)
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


def _kernel_cdf(h1, y, outward: bool = False):
    """P(next <= y | current = h1) under f, or under the outward kernel
    with its atom at 0 included.

    For N ~ Poisson(h1) the next value is Gamma(N + 1, 1) inward, and 0 if
    N = 0, else Gamma(N, 1), outward.  Since {Gamma(k) <= y} = {M >= k}
    for an independent M ~ Poisson(y), the CDF is the Skellam tail
    P(M - N > 0) inward and P(M - N > -1) outward.
    """
    from scipy.stats import skellam

    return skellam.sf(-1 if outward else 0, y, h1)


def _ks_uniform(u: np.ndarray) -> tuple[float, float]:
    """One-sample KS statistic of u against Uniform(0, 1) and its
    asymptotic p-value."""
    u = np.sort(u)
    n = len(u)
    i = np.arange(1, n + 1)
    d = float(max((i / n - u).max(), (u - (i - 1) / n).max()))
    return d, float(kolmogorov(np.sqrt(n) * d))


def rk_statistical_test(
    b: int = 3,
    h: float = 1.0,
    n_paths: int = 100_000,
    seed: int = 0,
    family_level: float = 0.01,
    depth: int = 12,
) -> RkReport:
    """Simulate walk profiles and test each transition against its exact
    conditional law.

    Battery: (a) for each inward step b-x -> b-x-1, the conditional CDF
    of the next value given the current one is exactly Uniform(0, 1), and
    a one-sample KS test checks it; (b) for the outward steps b -> b+1,
    b+1 -> b+2 and 0 -> -1, on at least 1,000 paths with a positive
    current value, the count of zeros is compared with the sum of the
    atoms e^{-h1} (normal approximation), and at least 500 positive next
    values are KS-tested through the CDF of the positive part; (c) the
    three profile segments are independent, through bounded summary
    cross-correlations.  P-value thresholds are Bonferroni-split across
    the KS and atom tests; correlations use the fixed 4/sqrt(n) bar, and
    a pair whose summary is constant on the batch is skipped.  Raises
    ``ValueError`` for a depth below 2, as the outward steps read b + 2,
    and for fewer than 2 uncensored paths.
    """
    if depth < 2:
        raise ValueError(f"the battery reads site b + 2, so it needs depth >= 2, got depth={depth}")
    batch = simulate_profiles(b, h, n_paths, seed, depth=depth)
    if len(batch.records) < 2:
        raise ValueError(f"the battery needs at least 2 uncensored paths, got "
                         f"{len(batch.records)} ({batch.n_censored} censored)")
    tests = []  # (name, statistic, p-value) of the KS and atom tests

    for x in range(b):
        h1, h2 = batch.at(b - x), batch.at(b - x - 1)
        tests.append((f"inward[{b - x}->{b - x - 1}]", *_ks_uniform(_kernel_cdf(h1, h2))))

    for src, dst in [(b, b + 1), (b + 1, b + 2), (0, -1)]:
        h1, h2 = batch.at(src), batch.at(dst)
        live = h1 > 0
        h1, h2 = h1[live], h2[live]
        if len(h1) < 1000:
            continue
        # 1 - e^{-h1} through expm1, so a tiny h1 leaves it positive
        atom, rest = np.exp(-h1), -np.expm1(-h1)
        zeros = np.count_nonzero(h2 == 0)
        var = float(np.sum(atom * rest))
        # with every atom underflowed, any zero contradicts the law
        z = float(abs(zeros - atom.sum()) / np.sqrt(var)) if var > 0 else (np.inf if zeros else 0.0)
        tests.append((f"outward-atom[{src}->{dst}]", z, float(2.0 * ndtr(-z))))
        pos = h2 > 0
        if np.count_nonzero(pos) >= 500:
            u = (_kernel_cdf(h1[pos], h2[pos], outward=True) - atom[pos]) / rest[pos]
            tests.append((f"outward-positive[{src}->{dst}]", *_ks_uniform(u)))

    level = family_level / len(tests) / 2.0  # half the budget to KS/atoms
    outcomes = [TestOutcome(name, stat, level, p, p >= level) for name, stat, p in tests]

    # (c) independence of segments through bounded summaries; the left
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
        if np.ptp(u) == 0 or np.ptp(v) == 0:  # no correlation to measure
            continue
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
