import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, skellam

from loctimes.chain import RangeSpec, box_srw
from loctimes.density import density_quadrature, density_series
from loctimes.rayknight import (
    ProfileBatch,
    bessel_i,
    bessel_i_scaled,
    f_kernel,
    ks_two_sample,
    pstar_kernel,
    rk_statistical_test,
    sample_f,
    sample_pstar,
    simulate_profiles,
    _quantile_bins,
)

# frozen references
I0_2 = 2.2795853023360673
I1_2 = 1.5906368546373291


def test_bessel_frozen_values():
    assert abs(bessel_i(0, 2.0) - I0_2) < 1e-14
    assert abs(bessel_i(1, 2.0) - I1_2) < 1e-14
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0


def test_bessel_scaled_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for order in (0, 1):
        for z in (0.1, 1.0, 7.0, 29.0, 31.0, 100.0, 300.0, 1e3, 1e4):
            ref = float(mp.besseli(order, z) * mp.exp(-z))
            assert abs(bessel_i_scaled(order, z) - ref) <= 1e-14 * max(ref, 1.0)


def test_bessel_guards():
    with pytest.raises(ValueError):
        bessel_i_scaled(2, 1.0)
    with pytest.raises(ValueError):
        bessel_i_scaled(0, -1.0)
    with pytest.raises(OverflowError):
        bessel_i(0, 701.0)


def test_bessel_scaled_vectorized():
    z = np.array([0.5, 10.0, 50.0])
    out = bessel_i_scaled(0, z)
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)  # scaled I0 decays


def test_f_kernel_normalization_and_mean():
    for h1 in (0.3, 1.0, 4.0):
        mass, _ = quad(lambda h2: f_kernel(h1, h2), 0, np.inf)
        mean, _ = quad(lambda h2: h2 * f_kernel(h1, h2), 0, np.inf)
        assert abs(mass - 1.0) < 1e-10
        assert abs(mean - (1.0 + h1)) < 1e-9


def test_f_kernel_point_value():
    assert abs(f_kernel(1.0, 1.0) - np.exp(-2.0) * I0_2) < 1e-14


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


def test_sample_f_matches_kernel():
    rng = np.random.default_rng(0)
    h1 = 1.3
    x = sample_f(np.full(40_000, h1), rng)
    # probability integral transform through the Skellam tail identity
    u = skellam.sf(0, x, h1)
    assert kstest(u, "uniform").pvalue > 1e-3
    assert abs(x.mean() - (1.0 + h1)) < 5 * x.std() / np.sqrt(len(x))


def test_sample_pstar_matches_kernel():
    rng = np.random.default_rng(1)
    h1 = 0.9
    x = sample_pstar(np.full(60_000, h1), rng)
    atom_frac = np.mean(x == 0.0)
    p0 = np.exp(-h1)
    assert abs(atom_frac - p0) < 5 * np.sqrt(p0 * (1 - p0) / len(x))
    pos = x[x > 0]
    k = pstar_kernel(h1)
    grid = np.linspace(1e-9, 30.0, 400)
    dens = k.density(grid) / (1.0 - k.atom)
    cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    u = np.interp(pos, grid, cdf_grid)
    assert kstest(u, "uniform").pvalue > 1e-3


def test_ks_two_sample_sanity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=4000)
    y = rng.normal(size=4000)
    d, p = ks_two_sample(x, y)
    assert p > 1e-3
    d2, p2 = ks_two_sample(x, y + 0.5)
    assert p2 < 1e-10
    from scipy.stats import ks_2samp

    ref = ks_2samp(x, y)
    assert abs(d - ref.statistic) < 1e-12


def test_ks_tail_against_jacobi_theta():
    """The asymptotic p-value against a 30-digit evaluation of the theta
    form 1 - (sqrt(2 pi)/lam) sum_k exp(-(2k-1)^2 pi^2 / (8 lam^2))."""
    n = 20000
    x = np.arange(float(n))
    # D = 1/n: lam = 0.005, where the tail is 1 to double precision and a
    # truncated alternating series is far off
    d, p = ks_two_sample(x, x + 0.5)
    assert d == pytest.approx(1 / n, rel=1e-12)
    assert p > 1.0 - 1e-12
    mp = pytest.importorskip("mpmath")
    # a shift of c - 1/2 gives D = c/n, so lam = c / sqrt(2n) = c / 200
    for lam_target, c in ((0.005, 1), (0.05, 10), (0.3, 60), (0.8, 160), (1.5, 300)):
        d, p = ks_two_sample(x, x + c - 0.5)
        with mp.workdps(30):
            lam = mp.sqrt(mp.mpf(n) / 2) * mp.mpf(d)
            assert abs(lam - lam_target) < 1e-12
            cdf = mp.sqrt(2 * mp.pi) / lam * mp.nsum(
                lambda k: mp.exp(-((2 * k - 1) ** 2) * mp.pi ** 2 / (8 * lam ** 2)), [1, mp.inf]
            )
            ref = float(1 - cdf)
        assert abs(p - ref) <= 1e-14, (lam_target, p, ref)


def test_quantile_bins_cover_and_fill():
    rng = np.random.default_rng(3)
    h1 = rng.gamma(2.0, size=5000)
    bins = _quantile_bins(h1, min_per_bin=500)
    total = np.concatenate(bins)
    assert len(total) == len(h1)
    assert len(np.unique(total)) == len(h1)
    assert all(len(b) >= 500 for b in bins)
    assert _quantile_bins(np.ones(100))[0].shape == (100,)


def test_simulate_profiles_exact_level():
    batch = simulate_profiles(b=2, h=1.0, n_paths=2000, seed=7, depth=6)
    assert batch.n_censored == 0
    assert np.all(batch.at(2) == 1.0)
    assert np.all(batch.records >= 0.0)
    # sites at the far window edges are rarely touched but never negative
    assert batch.records.shape == (2000, 2 + 2 * 6 + 1)
    with pytest.raises(ValueError):
        batch.at(99)


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
    # the walk's rates form a path, so its flow table holds that path's
    # cycles alone; that keeps the series within FLOW_LIMIT on intervals
    # of up to 7 sites at l near 1
    l = np.random.default_rng([lo + 10, hi + 10, b + 10]).uniform(0.4, 1.6, hi - lo + 1)
    res = density_series(box_srw(1, 12), RangeSpec(tuple(range(lo, hi + 1)), 0, b), l)
    want = _kernel_product(lo, hi, b, l)
    assert abs(res.value - want) <= 1e-10 * want
    assert abs(res.value - want) <= res.error_estimate
