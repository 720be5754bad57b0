import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from loctimes import rayknight
from loctimes.chain import RangeSpec, box_srw
from loctimes.density import density_quadrature, density_series
from loctimes.rayknight import (
    f_kernel,
    pstar_kernel,
    rk_statistical_test,
    simulate_profiles,
    _kernel_cdf,
    _ks_uniform,
)

# frozen references
I0_2 = 2.2795853023360673
I1_2 = 1.5906368546373291


def test_f_kernel_normalization_and_mean():
    for h1 in (0.3, 1.0, 4.0):
        mass, _ = quad(lambda h2: f_kernel(h1, h2), 0, np.inf)
        mean, _ = quad(lambda h2: h2 * f_kernel(h1, h2), 0, np.inf)
        assert abs(mass - 1.0) < 1e-10
        assert abs(mean - (1.0 + h1)) < 1e-9


def test_f_kernel_point_value():
    assert abs(f_kernel(1.0, 1.0) - np.exp(-2.0) * I0_2) < 1e-14


def test_pstar_kernel_point_value():
    assert abs(pstar_kernel(1.0).density(1.0) - np.exp(-2.0) * I1_2) < 1e-14


@pytest.mark.parametrize("h1, h2", [(0.1, 3.0), (30.0, 31.0), (500.0, 500.0), (1e4, 1.01e4)])
def test_kernels_against_mpmath(h1, h2):
    # far past the overflow of I_0 and I_1 (z near 700) the scaled form
    # keeps full relative accuracy
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        z = 2 * mp.sqrt(mp.mpf(h1) * h2)
        damp = mp.exp(-mp.mpf(h1) - h2)
        f_ref = float(damp * mp.besseli(0, z))
        p_ref = float(damp * mp.sqrt(mp.mpf(h1) / h2) * mp.besseli(1, z))
    assert abs(f_kernel(h1, h2) - f_ref) <= 1e-13 * f_ref
    assert abs(pstar_kernel(h1).density(h2) - p_ref) <= 1e-13 * p_ref


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_kernels_reject_bad_arguments(bad):
    with pytest.raises(ValueError):
        f_kernel(bad, 1.0)
    with pytest.raises(ValueError):
        f_kernel(1.0, np.array([1.0, bad]))
    with pytest.raises(ValueError):
        pstar_kernel(bad)
    with pytest.raises(ValueError):
        pstar_kernel(1.0).density(bad)


def test_pstar_kernel_mass_and_mean():
    for h1 in (0.5, 1.0, 3.0):
        k = pstar_kernel(h1)
        assert abs(k.atom - np.exp(-h1)) < 1e-15
        mass, _ = quad(k.density, 0, np.inf)
        mean, _ = quad(lambda h2: h2 * k.density(h2), 0, np.inf)
        assert abs(k.atom + mass - 1.0) < 1e-10
        assert abs(mean - h1) < 1e-9


def test_pstar_zero_level():
    k = pstar_kernel(0.0)
    assert k.atom == 1.0
    assert np.all(k.density(np.array([0.5, 1.0])) == 0.0)


@pytest.mark.parametrize("h1", [1e-3, 0.05, 1.0, 7.0])
def test_kernel_cdfs_are_the_kernels_integrals(h1):
    # the battery's exact conditional laws: the Skellam tails against the
    # integrals of the densities, the outward one with its atom e^{-h1}
    k = pstar_kernel(h1)
    opts = dict(epsabs=1e-15, epsrel=1e-13, limit=200)
    for y in (0.01, 1.0, 10.0, 50.0):
        inward = quad(lambda v: f_kernel(h1, v), 0, y, **opts)[0]
        outward = k.atom + quad(k.density, 0, y, **opts)[0]
        assert abs(_kernel_cdf(h1, y) - inward) <= 1e-12, y
        assert abs(_kernel_cdf(h1, y, outward=True) - outward) <= 1e-12, y


def test_ks_uniform_is_the_asymptotic_kstest():
    # skewed below and above the diagonal, so each side of D sets it once
    v = np.random.default_rng(2).uniform(size=4000)
    for power in (1.02, 0.98):
        d, p = _ks_uniform(v ** power)
        ref = kstest(v ** power, "uniform", method="asymp")
        assert d == pytest.approx(ref.statistic, rel=1e-14)
        assert p == pytest.approx(ref.pvalue, rel=1e-12)
    assert _ks_uniform(v ** 1.12)[1] < 1e-6


def test_simulate_profiles_exact_level():
    batch = simulate_profiles(b=2, h=1.0, n_paths=2000, seed=7, depth=6)
    assert batch.n_censored == 0
    assert np.all(batch.at(2) == 1.0)
    assert np.all(batch.records >= 0.0)
    # sites at the far window edges are rarely touched but never negative
    assert batch.records.shape == (2000, 2 + 2 * 6 + 1)
    with pytest.raises(ValueError):
        batch.at(99)


def test_jump_cap_censors_paths(monkeypatch):
    # the walk needs 3 jumps to reach b = 3, so a cap of 2 censors every path
    monkeypatch.setattr(rayknight, "MAX_EVENTS", 2)
    batch = simulate_profiles(b=3, h=1.0, n_paths=50, seed=1, depth=2)
    assert batch.n_censored == 50
    assert batch.records.shape == (0, 3 + 2 * 2 + 1)


def test_simulate_profiles_rejects_no_paths():
    with pytest.raises(ValueError, match="at least one path"):
        simulate_profiles(b=2, h=1.0, n_paths=0, seed=1)


def test_walk_and_battery_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_profiles(b=2, h=1.0, n_paths=300, seed=3, depth=4)
        rk_statistical_test(b=2, h=1.0, n_paths=300, seed=4, depth=4)


def test_profile_means():
    # E[local time at the start 0] = 1 + b * h for level h at distance b
    # (inward chain mean gains 1 per step)
    b, h = 2, 1.0
    batch = simulate_profiles(b=b, h=h, n_paths=60_000, seed=11, depth=8)
    x = batch.at(0)
    target = h + b
    assert abs(x.mean() - target) < 5 * x.std() / np.sqrt(len(x))


def test_rk_battery_small():
    report = rk_statistical_test(b=2, h=1.0, n_paths=20_000, seed=5)
    assert report.passed
    rows = list(report.rows())
    assert all(r["passed"] for r in rows)
    assert report.n_censored == 0


@pytest.fixture(scope="module")
def small_batch():
    return simulate_profiles(b=2, h=1.0, n_paths=20_000, seed=5)


def _battery_on(monkeypatch, batch, records):
    """The small battery run on ``records`` in place of its simulation."""
    prepared = dataclasses.replace(batch, records=records)
    monkeypatch.setattr(rayknight, "simulate_profiles", lambda *args, **kwargs: prepared)
    report = rk_statistical_test(b=2, h=1.0, n_paths=20_000, seed=5)
    return {o.name: o for o in report.outcomes}, report.passed


def _inward_scaled(records, col):
    records[:, col(0):col(2)] *= 1.05


def _outward_zeros(records, col):
    # 2% of the positive values at b + 1 moved onto the atom
    pos = np.flatnonzero(records[:, col(3)] > 0)
    records[pos[::50], col(3)] = 0.0


def _left_shuffled(records, col):
    # the left segment of other paths: right law, lost dependence on L(0)
    perm = np.random.default_rng(0).permutation(len(records))
    records[:, :col(0)] = records[perm, :col(0)]


@pytest.mark.parametrize("perturb, fails", [
    (_inward_scaled, "inward[2->1]"),
    (_outward_zeros, "outward-atom[2->3]"),
    (_left_shuffled, "outward-positive[0->-1]"),
], ids=["inward-x1.05", "outward-zeros-2pct", "left-shuffled"])
def test_battery_rejects_perturbed_profiles(monkeypatch, small_batch, perturb, fails):
    records = small_batch.records.copy()
    perturb(records, lambda x: x + small_batch.depth)
    outcomes, passed = _battery_on(monkeypatch, small_batch, records)
    assert not passed
    assert not outcomes[fails].passed


def test_battery_guards(monkeypatch, small_batch):
    col = lambda x: x + small_batch.depth
    # a live level at b + 1 so small that 1 - e^{-h1} rounds to 0
    records = small_batch.records.copy()
    records[np.flatnonzero(records[:, col(3)] > 0)[:200], col(3)] = 1e-300
    outcomes, _ = _battery_on(monkeypatch, small_batch, records)
    assert np.isfinite(outcomes["outward-positive[3->4]"].statistic)
    # every atom at b underflows and no zero follows: z reads 0
    records = small_batch.records.copy()
    records[:, col(2)] = 800.0
    records[records[:, col(3)] == 0, col(3)] = 1.0
    outcomes, _ = _battery_on(monkeypatch, small_batch, records)
    atom = outcomes["outward-atom[2->3]"]
    assert (atom.statistic, atom.p_value, atom.passed) == (0.0, 1.0, True)


def _kernel_product(lo, hi, b, l):
    """The density of the rate-1 walk's local times on the exact range
    [lo, hi], from 0 to b, in Ray-Knight form: the inward kernel f from b
    to 0, the outward kernel from 0 and from b away from each other, and
    the outward kernel's atoms e^{-l_lo} and e^{-l_hi} past the ends."""
    L = dict(zip(range(lo, hi + 1), l))
    step = 1 if b >= 0 else -1
    out = np.exp(-L[lo] - L[hi])
    for x in range(b, 0, -step):
        out *= f_kernel(L[x], L[x - step])
    for x in range(min(0, b), lo, -1):
        out *= pstar_kernel(L[x]).density(L[x - 1])
    for x in range(max(0, b), hi):
        out *= pstar_kernel(L[x]).density(L[x + 1])
    return float(out)


@pytest.mark.parametrize("lo, hi, b, scale", [
    (-1, 1, 1, 80.0), (-1, 1, 0, 40.0), (-1, 1, -1, 10.0), (0, 2, 2, 0.1), (-2, 0, -2, 1.0),
    (-1, 2, 2, 40.0), (-2, 1, 0, 10.0), (-2, 1, -1, 1.0), (-1, 2, 1, 0.1), (-1, 2, 0, 2.0),
])
def test_density_is_the_kernel_product(lo, hi, b, scale):
    # the paper's closing remark: on an interval the density factors into
    # the Ray-Knight kernels, so they are a reference for the quadrature
    # from small l up to l = 80, where its grids grow to 100-150 per angle
    l = scale * np.random.default_rng([lo + 10, hi + 10, b + 10]).uniform(0.5, 1.5, hi - lo + 1)
    res = density_quadrature(box_srw(1, 12), RangeSpec(tuple(range(lo, hi + 1)), 0, b), l)
    want = _kernel_product(lo, hi, b, l)
    assert abs(res.value - want) <= 1e-9 * want
    assert abs(res.value - want) <= res.error_estimate + 1e-15 * want


@pytest.mark.parametrize("lo, hi, b", [(-1, 1, 1), (-2, 1, 0), (-2, 2, -1), (-2, 3, 2), (-3, 3, 1)])
def test_series_is_the_kernel_product(lo, hi, b):
    # the walk's rates form a path, so the covers of its monomial table
    # are the path's sets of disjoint edges alone (20 on 7 sites); on 7
    # sites at l near 1 the series stops at degree 49 with 593,775
    # monomials, 8.4 M with the recurrence's triples, within TABLE_LIMIT
    l = np.random.default_rng([lo + 10, hi + 10, b + 10]).uniform(0.4, 1.6, hi - lo + 1)
    res = density_series(box_srw(1, 12), RangeSpec(tuple(range(lo, hi + 1)), 0, b), l)
    want = _kernel_product(lo, hi, b, l)
    assert abs(res.value - want) <= 1e-10 * want
    assert abs(res.value - want) <= res.error_estimate


def test_battery_needs_two_uncensored_paths(monkeypatch):
    # one path has no correlation, and a fully censored batch nothing to test
    with pytest.raises(ValueError, match=r"at least 2 uncensored paths, got 1 \(0 censored\)"):
        rk_statistical_test(b=2, h=1.0, n_paths=1, seed=3, depth=4)
    monkeypatch.setattr(rayknight, "MAX_EVENTS", 2)
    with pytest.raises(ValueError, match=r"at least 2 uncensored paths, got 0 \(50 censored\)"):
        rk_statistical_test(b=3, h=1.0, n_paths=50, seed=1, depth=2)


def test_battery_skips_a_constant_summary(monkeypatch, small_batch):
    # no path enters the right segment: its summary is 1 on every path
    records = small_batch.records.copy()
    records[:, 2 + 1 + small_batch.depth:] = 0.0
    outcomes, _ = _battery_on(monkeypatch, small_batch, records)
    assert "independence[inner,right]" not in outcomes
    assert "independence[right,left]" not in outcomes
    assert np.isfinite(outcomes["independence[inner,left-step]"].statistic)


def test_depth_guards():
    with pytest.raises(ValueError, match="depth=-1"):
        simulate_profiles(b=2, h=1.0, n_paths=10, seed=1, depth=-1)
    # depth 0 is the walk on 0..b alone
    assert simulate_profiles(b=2, h=1.0, n_paths=10, seed=1, depth=0).records.shape == (10, 3)
    for depth in (-1, 0, 1):
        with pytest.raises(ValueError, match=f"depth={depth}"):
            rk_statistical_test(b=2, h=1.0, n_paths=300, seed=4, depth=depth)


@pytest.mark.parametrize("b, h", [(0, 1.0), (-1, 1.0), (2, 0.0), (2, -1.0)])
def test_simulate_profiles_rejects_b_below_1_and_h_not_positive(b, h):
    with pytest.raises(ValueError, match="need b >= 1 and h > 0"):
        simulate_profiles(b=b, h=h, n_paths=10, seed=1)
