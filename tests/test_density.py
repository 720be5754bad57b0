import numpy as np
import pytest

from loctimes.chain import RangeSpec, validate_generator
from loctimes.density import (
    CapacityError,
    ConvergenceError,
    SeriesEvaluator,
    density_finite_difference,
    density_quadrature,
    density_series,
    enumerate_balanced_flows,
    gauge_invariance_check,
    local_time_density,
    theta_integral_series,
    _derivative_expansion,
)

# frozen reference values (independently computed Bessel series)
I0_2 = 2.2795853023360673
I1_2 = 1.5906368546373291
RHO_11 = np.exp(-2.0) * I1_2  # 0.21526928924893768
RHO_12 = np.exp(-2.0) * I0_2  # 0.30850832255367105

TWO_STATE = validate_generator([[-1, 1], [1, -1]])
SPEC_AA = RangeSpec((0, 1), 0, 0)
SPEC_AB = RangeSpec((0, 1), 0, 1)
L_UNIT = {0: 1.0, 1: 1.0}


def random_generator(n, rng, scale=0.8):
    B = rng.uniform(0.1, scale, size=(n, n))
    np.fill_diagonal(B, 0)
    A = B.copy()
    np.fill_diagonal(A, -B.sum(axis=1))
    return validate_generator(A)


def test_enumerate_flows_size2():
    assert len(enumerate_balanced_flows(2, 0)) == 1
    flows = enumerate_balanced_flows(2, 4)
    assert len(flows) == 3  # n12 = n21 = k for k in 0..2


def test_enumerate_flows_size3_degree2():
    flows = enumerate_balanced_flows(3, 2)
    assert len(flows) == 4  # zero flow plus the three 2-cycles


def test_enumerate_flows_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_balanced_flows(4, 40, limit=100)


def test_flow_balance_invariant():
    for flow in enumerate_balanced_flows(3, 4):
        counts = np.array(flow.counts)
        assert np.all(counts.sum(axis=1) == counts.sum(axis=0))
        assert np.all(np.diag(counts) == 0)


def test_theta_series_zero_matrix():
    value, err = theta_integral_series(np.zeros((2, 2)), np.array([1.0, 2.0]))
    assert value == 1.0


def test_theta_series_bessel():
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    value, err = theta_integral_series(B, np.array([1.0, 1.0]))
    assert abs(value - I0_2) < 1e-10


def test_density_series_two_state_closed_forms():
    res = density_series(TWO_STATE, SPEC_AA, L_UNIT)
    assert abs(res.value - RHO_11) < 1e-10
    res = density_series(TWO_STATE, SPEC_AB, L_UNIT)
    assert abs(res.value - RHO_12) < 1e-10


def test_density_singleton_range():
    gen = validate_generator([[-1, 1], [1, -1]])
    spec = RangeSpec((0,), 0, 0)
    for fn in (density_series, density_quadrature, density_finite_difference):
        res = fn(gen, spec, {0: 1.0})
        assert abs(res.value - np.exp(-1.0)) < 1e-12


def test_density_quadrature_two_state():
    res = density_quadrature(TWO_STATE, SPEC_AB, L_UNIT)
    assert abs(res.value - RHO_12) < 1e-8


def test_density_finite_difference_two_state():
    res = density_finite_difference(TWO_STATE, SPEC_AA, L_UNIT)
    assert abs(res.value - RHO_11) < 1e-6


def test_finite_difference_rejects_big_step():
    with pytest.raises(ValueError):
        density_finite_difference(TWO_STATE, SPEC_AA, {0: 0.001, 1: 1.999}, step=0.1)


def test_cross_evaluator_three_state():
    rng = np.random.default_rng(7)
    gen = random_generator(3, rng)
    spec = RangeSpec((0, 1, 2), 0, 1)
    l = dict(zip(range(3), rng.dirichlet(np.ones(3))))
    rs = density_series(gen, spec, l)
    rq = density_quadrature(gen, spec, l)
    rf = density_finite_difference(gen, spec, l)
    budget = rs.error_estimate + rq.error_estimate + rf.error_estimate + 1e-12
    assert abs(rs.value - rq.value) <= budget
    assert abs(rs.value - rf.value) <= budget


def test_gauge_invariance():
    rng = np.random.default_rng(11)
    gen = random_generator(3, rng)
    spec = RangeSpec((0, 1, 2), 0, 2)
    l = dict(zip(range(3), [0.2, 0.5, 0.3]))
    assert gauge_invariance_check(gen, spec, l, np.ones(3)) == 0.0
    for _ in range(5):
        r = np.exp(rng.normal(size=3))
        dev = gauge_invariance_check(gen, spec, l, r)
        assert dev < 1e-10


def test_derivative_expansion_order_bound():
    # the expansion never differentiates more than |R| - 2 + (a == b) times
    rng = np.random.default_rng(3)
    for n, a, b, order in [(2, 0, 0, 1), (2, 0, 1, 0), (4, 1, 2, 2), (4, 1, 1, 3)]:
        M = rng.normal(size=(n, n))
        terms = _derivative_expansion(M, a, b)
        assert max(len(Q) for Q, _ in terms) <= order


def test_derivative_expansion_two_state_values():
    # hand-worked cofactors for the off-diagonal matrix [[0, p], [q, 0]]
    p, q = 2.0, 3.0
    B = np.array([[0.0, p], [q, 0.0]])
    terms = dict(_derivative_expansion(B, 0, 0))
    assert terms[()] == 0.0  # det of [[0,-p],[0,1]]-style block vanishes
    assert terms[(1,)] == pytest.approx(1.0)
    terms = dict(_derivative_expansion(B, 0, 1))
    assert terms[()] == pytest.approx(p)


def test_theta_derivative_dominated_by_exponential():
    # the angular integral and its mixed derivatives are nonnegative and
    # dominated by the matching derivatives of exp(sum B sqrt(l_x l_y))
    B = np.array([[0.0, 0.7, 0.2], [0.4, 0.0, 0.5], [0.3, 0.6, 0.0]])
    l0 = np.array([0.8, 1.1, 0.6])
    h = 1e-4

    def theta(l):
        return theta_integral_series(B, l)[0]

    def upper(l):
        sql = np.sqrt(l)
        return np.exp(np.sum(B * np.outer(sql, sql)))

    for Q in [(), (0,), (2,), (0, 1)]:
        def mixed(f, l):
            if not Q:
                return f(l)
            total = 0.0
            for signs in np.ndindex(*(2,) * len(Q)):
                pt = l.copy()
                sgn = 1.0
                for s, x in zip(signs, Q):
                    pt[x] += h if s == 0 else -h
                    sgn *= 1.0 if s == 0 else -1.0
                total += sgn * f(pt)
            return total / (2 * h) ** len(Q)

        dt = mixed(theta, l0)
        du = mixed(upper, l0)
        assert dt >= -1e-6
        assert dt <= du + 1e-6


def test_nonnegativity_sampled():
    rng = np.random.default_rng(19)
    gen = random_generator(3, rng)
    spec = RangeSpec((0, 1, 2), 1, 1)
    for _ in range(20):
        l = dict(zip(range(3), rng.dirichlet(np.ones(3))))
        res = density_series(gen, spec, l)
        assert res.value >= -res.error_estimate


def test_batch_values_match_scalar():
    rng = np.random.default_rng(23)
    gen = random_generator(3, rng)
    spec = RangeSpec((0, 1, 2), 0, 1)
    ev = SeriesEvaluator(gen, spec)
    L = rng.dirichlet(np.ones(3), size=17)
    vals, tails = ev.values(L)
    for row, v in zip(L, vals):
        single = density_series(gen, spec, dict(zip(range(3), row)))
        assert abs(single.value - v) < 1e-10


def test_batch_values_raise_when_truncated():
    # at these points the two-state series needs more than the 80-degree
    # cap: the closed form e^{-2l} I_0(2l) is 0.0516115 at l=30 and 0.0326
    # at l=75, against truncated sums of 0.0514074 and 1.5e-11
    ev = SeriesEvaluator(TWO_STATE, SPEC_AB)
    for l in (30.0, 75.0):
        with pytest.raises(ConvergenceError):
            ev.values(np.array([[1.0, 1.0], [l, l]]))
        with pytest.raises(ConvergenceError):
            density_series(TWO_STATE, SPEC_AB, {0: l, 1: l})
    assert abs(ev.values(np.array([[1.0, 1.0]]))[0][0] - RHO_12) < 1e-10


def test_dispatcher_returns_result():
    res = local_time_density(TWO_STATE, SPEC_AB, L_UNIT)
    assert res.method in ("series", "quadrature")
    assert abs(res.value - RHO_12) < 1e-8
