import itertools

import numpy as np
import pytest

from loctimes.chain import RangeSpec, validate_generator
from loctimes.density import SeriesEvaluator
from loctimes.oracles import (
    SimplexChart,
    _real_form,
    gaussian_identity_check,
    killed_prob,
    matrix_exponential,
    range_exact_prob,
    resolvent_check,
    simplex_integrate,
)

TWO_STATE = validate_generator([[-1, 1], [1, -1]])
THREE_STATE = validate_generator([[-1, 1, 0], [0.5, -1, 0.5], [0, 1, -1]])

# frozen two-state references: eigenvalues 0 and -2
EXP_11 = 0.5 * (1 + np.exp(-2.0))  # 0.5676676416183064
KILLED_12 = 0.5 * (1 - np.exp(-2.0))  # 0.43233235838169365
RANGE_11 = EXP_11 - np.exp(-1.0)  # 0.19978820044686478


def test_expm_zero_matrix():
    assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_two_state_eigendecomposition():
    E = matrix_exponential(TWO_STATE.rates, 1.0)
    assert abs(E[0, 0] - EXP_11) < 1e-14


def _mpmath_expm(M):
    """e^M to 30 digits, as a numpy array of the input's kind."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        E = mp.expm(mp.matrix(M.tolist()))
        return np.array(E.tolist(), dtype=M.dtype)


def test_expm_matches_mpmath():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(6, 6))
    assert np.allclose(matrix_exponential(M), _mpmath_expm(M), rtol=1e-12, atol=1e-12)
    Z = M + 1j * rng.normal(size=(6, 6))
    E = matrix_exponential(Z, 0.7)
    assert E.dtype == complex
    assert np.allclose(E, _mpmath_expm(0.7 * Z), rtol=1e-12, atol=1e-12)


def test_expm_guards():
    with pytest.raises(ValueError):
        matrix_exponential(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[0.0, np.nan], [1.0, 0.0]]))
    with pytest.raises(OverflowError):
        matrix_exponential(np.array([[-2e12, 2e12], [0.0, 0.0]]))


def test_expm_stochastic_rows():
    E = matrix_exponential(THREE_STATE.rates, 2.5)
    assert np.allclose(E.sum(axis=1), 1.0, atol=1e-12)


def test_killed_prob_cases():
    assert abs(killed_prob(TWO_STATE, (0, 1), 0, 1, 1.0) - KILLED_12) < 1e-13
    assert abs(killed_prob(THREE_STATE, (0,), 0, 0, 1.0) - np.exp(-1.0)) < 1e-13
    with pytest.raises(ValueError):
        killed_prob(THREE_STATE, (0, 1), 0, 2, 1.0)


def test_range_exact_two_state():
    spec = RangeSpec((0, 1), 0, 0)
    assert abs(range_exact_prob(TWO_STATE, spec, 1.0) - RANGE_11) < 1e-13


def test_range_exact_singleton():
    spec = RangeSpec((0,), 0, 0)
    assert abs(range_exact_prob(THREE_STATE, spec, 1.0) - np.exp(-1.0)) < 1e-13


def test_range_exact_size_cap():
    # the cap raises before any of the 2^19 killed probabilities is computed
    ring = np.roll(np.eye(21), 1, axis=1) - np.eye(21)
    with pytest.raises(ValueError, match="exceeds the 2\\^n capacity cap"):
        range_exact_prob(validate_generator(ring), RangeSpec(tuple(range(21)), 0, 1), 1.0)


def test_inclusion_exclusion_telescopes():
    # summing exact-range probabilities over sub-ranges recovers the killed
    # semigroup entry
    T = 1.3
    for a, b in [(0, 0), (0, 2), (1, 2)]:
        total = 0.0
        for k in range(1, 4):
            for S in itertools.combinations(range(3), k):
                if a in S and b in S:
                    total += range_exact_prob(THREE_STATE, RangeSpec(S, a, b), T)
        assert abs(total - killed_prob(THREE_STATE, (0, 1, 2), a, b, T)) < 1e-12


def test_range_probabilities_partition():
    T = 0.7
    total = 0.0
    for b in range(3):
        for k in range(1, 4):
            for S in itertools.combinations(range(3), k):
                if 0 in S and b in S:
                    total += range_exact_prob(THREE_STATE, RangeSpec(S, 0, b), T)
    assert abs(total - 1.0) < 1e-12


def test_resolvent_identity():
    dev = resolvent_check(THREE_STATE, (0, 1, 2), 0, 1, [-0.3, -0.5, -0.2])
    assert dev < 1e-8
    dev = resolvent_check(TWO_STATE, (0, 1), 0, 1, [-1.0, -2.0])
    assert dev < 1e-8


def test_resolvent_rejects_bad_tilt():
    with pytest.raises(ValueError):
        resolvent_check(TWO_STATE, (0, 1), 0, 1, [0.5, -1.0])


def test_gaussian_identity_diagonal():
    assert gaussian_identity_check(np.array([[1.0 + 0j]])) < 1e-10
    assert gaussian_identity_check(np.diag([2.0 + 0j, 0.7 + 0j])) < 1e-8


def test_gaussian_identity_non_normal():
    M = np.array([[2.0 + 0.1j, 0.4 + 0.2j], [0.1 - 0.3j, 1.7 - 0.2j]])
    assert gaussian_identity_check(M) < 1e-8


def test_gaussian_identity_mc_three():
    K = np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=float)
    S = 0.2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    M = np.eye(3) * 2 + 0.4 * K + S + 0.1j * S
    assert gaussian_identity_check(M) < 1e-2


def test_gaussian_real_form_matches_polarization():
    # G[i, j] = (q(e_i + e_j) - q(e_i) - q(e_j)) / 2 for the real quadratic
    # form q(u, v) = <phi, H conj(phi)>, phi = u + iv
    rng = np.random.default_rng(43)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = 0.5 * (A + A.conj().T)

    def q(z):
        phi = z[:3] + 1j * z[3:]
        return np.real(phi @ (H @ phi.conj()))

    e = np.eye(6)
    polar = np.array([[0.5 * (q(e[i] + e[j]) - q(e[i]) - q(e[j])) for j in range(6)]
                      for i in range(6)])
    assert np.max(np.abs(_real_form(H) - polar)) < 1e-14


def test_gaussian_identity_rejects_indefinite():
    with pytest.raises(ValueError):
        gaussian_identity_check(np.diag([1.0, -1.0]).astype(complex))


def test_simplex_volume():
    spec = RangeSpec((0, 1, 2), 0, 2)
    chart = SimplexChart(spec, horizon=2.0)
    res = simplex_integrate(lambda L: np.ones(len(L)), chart, resolution=64)
    assert abs(res.value - 2.0 ** 2 / 2.0) < 1e-3


def test_simplex_singleton_point_mass():
    spec = RangeSpec((0,), 0, 0)
    chart = SimplexChart(spec, horizon=1.5)
    res = simplex_integrate(lambda L: L[:, 0] ** 2, chart)
    assert res.value == 1.5 ** 2


def test_marginal_consistency_two_state():
    spec = RangeSpec((0, 1), 0, 1)
    ev = SeriesEvaluator(TWO_STATE, spec)
    chart = SimplexChart(spec, horizon=1.0)
    res = simplex_integrate(lambda L: ev.values(L)[0], chart, resolution=256)
    assert abs(res.value - KILLED_12) < 2e-6


def test_chart_independence():
    # dropping either coordinate gives the same integral
    spec = RangeSpec((0, 1), 0, 1)
    ev = SeriesEvaluator(TWO_STATE, spec)
    vals = []
    for dropped in (0, 1):
        chart = SimplexChart(spec, horizon=1.0, dropped=dropped)
        vals.append(simplex_integrate(lambda L: ev.values(L)[0], chart, resolution=512).value)
    assert abs(vals[0] - vals[1]) <= 1e-9 * abs(vals[0])


def test_laplace_transform_consistency():
    # integrating e^{<v, l>} against the density over the simplex, then over
    # an exponentially weighted horizon, matches a resolvent entry
    gen = TWO_STATE
    spec = RangeSpec((0, 1), 0, 1)
    v = np.array([-0.4, -0.7])
    lam = 0.9
    ev = SeriesEvaluator(gen, spec)

    def inner(T):
        chart = SimplexChart(spec, horizon=T)
        return simplex_integrate(
            lambda L: ev.values(L)[0] * np.exp(L @ v), chart, resolution=256
        ).value

    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(40)
    total = 0.0
    for lo, hi in zip(np.linspace(0, 30, 16)[:-1], np.linspace(0, 30, 16)[1:]):
        ts = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * np.sum(
            weights * np.array([np.exp(-lam * t) * inner(t) for t in ts])
        )
    # the event {range exactly {0,1}} subtracts the never-jumping resolvent
    M = -(gen.rates + np.diag(v)) + lam * np.eye(2)
    full = np.linalg.solve(M, np.eye(2))[0, 1]
    assert abs(total - full) < 1e-6


def test_mc_mode_volume():
    spec = RangeSpec((0, 1, 2, 3), 0, 3)
    chart = SimplexChart(spec, horizon=1.0)
    res = simplex_integrate(lambda L: np.ones(len(L)), chart, mode="mc", seed=2)
    assert abs(res.value - 1.0 / 6.0) < 1e-12
