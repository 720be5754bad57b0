import functools
import itertools
import json
import os
import subprocess
import sys
import textwrap
import time
from math import factorial, prod

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, ive

import loctimes
from loctimes.chain import RangeSpec, box_srw, validate_generator
from loctimes.density import (
    FD_TOL,
    CapacityError,
    ConvergenceError,
    SeriesEvaluator,
    density_finite_difference,
    density_quadrature,
    density_series,
    gauge_invariance_check,
    local_time_density,
    theta_integral_series,
    _covers,
    _derivative_expansion,
    _Series,
    _MonomialTable,
    _TABLES,
    PASS_BLOCK,
    _quadrature_grid,
    _quadrature_integrand,
    _refine,
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
SQUARE = RangeSpec(((0, 0), (0, 1), (1, 0), (1, 1)), (0, 0), (1, 1))  # in box_srw(2, 1)


def complete(n):
    """The support of a chain that jumps between any two of n sites."""
    return ~np.eye(n, dtype=bool)


def shared_table(support, K):
    """The monomial table every series on ``support`` uses, extended through K."""
    tab = _Series(support.astype(float), [((), 1.0)], 1e-10).table
    tab.extend(K)
    return tab


def random_generator(n, rng, scale=0.8):
    B = rng.uniform(0.1, scale, size=(n, n))
    np.fill_diagonal(B, 0)
    A = B.copy()
    np.fill_diagonal(A, -B.sum(axis=1))
    return validate_generator(A)


def bench_chain(seed):
    """A dense five-state chain on the range {0, 1, 2, 3}, 0 -> 1, killed to
    state 4, its in-range rates scaled so that T lambda_max(sym |B|) = 0.54
    at T = 1, as the density benchmark draws them."""
    rng = np.random.default_rng(seed)
    B = rng.uniform(0.05, 1.0, size=(5, 5))
    np.fill_diagonal(B, 0.0)
    sub = B[:4, :4]
    B[:4, :4] *= 0.54 / np.linalg.eigvalsh(0.5 * (sub + sub.T)).max()
    return validate_generator(B - np.diag(B.sum(axis=1))), RangeSpec((0, 1, 2, 3), 0, 1)


def simplex_grid(n):
    """The n^3 midpoint nodes of the nested square-root grid on the size-4
    simplex at T = 1, as ``simplex_integrate`` lays them out; at n = 16
    the smallest local time is 3.7e-6."""
    t = (np.arange(n) + 0.5) / n
    ts = np.stack([g.ravel() for g in np.meshgrid(t, t, t, indexing="ij")], axis=1)
    L, budget = np.empty((len(ts), 4)), np.ones(len(ts))
    for i in range(3):
        L[:, i] = budget * ts[:, i] ** 2
        budget = budget - L[:, i]
    L[:, 3] = budget
    return L


def _enumerate_matrices(size: int, max_degree: int) -> list:
    """All balanced nonnegative integer matrices (zero diagonal) with total
    degree at most ``max_degree``, via row-wise depth-first search: the
    reference for the monomials and coefficients of ``_MonomialTable``.

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


@functools.lru_cache(maxsize=None)
def flow_counts(n, K):
    """The reference flows of degree <= K as (flows, n, n) counts."""
    return np.array(_enumerate_matrices(n, K), dtype=np.int64).reshape(-1, n, n)


def reference_coefficients(B, K):
    """Per out-degree vector d of the balanced flows of degree <= K on the
    support of B, the sum of their coefficients prod B^n / n!, from the
    brute-force enumeration."""
    counts = flow_counts(len(B), K)
    counts = counts[~np.any(counts[:, B == 0], axis=1)]
    inv_fact = np.array([1.0 / factorial(k) for k in range(K + 1)])
    coeff = np.prod(B[None] ** counts * inv_fact[counts], axis=(1, 2))
    d, index = np.unique(counts.sum(axis=2), axis=0, return_inverse=True)
    sums = np.zeros(len(d), dtype=coeff.dtype)
    np.add.at(sums, index.ravel(), coeff)
    return dict(zip(map(tuple, d.tolist()), sums))


def table_coefficients(B, K):
    """The series' coefficient a_d per monomial l^d of degree <= K."""
    series = _Series(B, [((), 1.0)], 1e-10)
    series.table.extend(K)
    a = series._weights(K)[:, 0]
    return dict(zip(map(tuple, series.table.powers[: len(a)].astype(int).tolist()), a))


def assert_coefficients_match(B, K):
    got, want = table_coefficients(B, K), reference_coefficients(B, K)
    assert got.keys() == want.keys()
    for d, c in want.items():
        assert abs(got[d] - c) <= 1e-13 * abs(c), d


def assert_monomials_match(tab, support):
    want = reference_coefficients(rates_on(support), tab.max_degree).keys()
    assert len(tab.powers) == tab.size(tab.max_degree) == len(want)
    assert set(map(tuple, tab.powers.astype(int).tolist())) == want


def rates_on(support, seed=53):
    """Rates uniform in 0.2-1.0 on the edges of ``support``, 0 elsewhere."""
    return support * np.random.default_rng(seed).uniform(0.2, 1.0, support.shape)


@pytest.mark.parametrize("size, K", [(2, 16), (3, 20), (4, 14), (4, 18), (7, 4)])
def test_flow_table_matches_reference(size, K):
    # at (7, 4) the 247 covers of all sizes 2-7 meet layers of one and two
    # pair covers
    assert_coefficients_match(rates_on(complete(size)), K)


@pytest.mark.parametrize("support, K", [
    (box_srw(1, 12).submatrix((0, 1, 2, 3)) > 0, 18),
    (box_srw(2, 1).submatrix(SQUARE.range) > 0, 18),
    (np.roll(np.eye(3, dtype=bool), 1, axis=1), 20),  # 0 -> 1 -> 2 -> 0 only
    (np.triu(np.ones((3, 3), dtype=bool), 1), 20),
], ids=["path", "square", "one-way-cycle", "acyclic"])
def test_support_table_matches_reference(support, K):
    # a flow that uses an edge off the support has coefficient 0, so the
    # table holds the out-degrees of the other flows; the square's full
    # 4x4 minor is 0, though the square is a cover
    assert_coefficients_match(rates_on(support), K)


@pytest.mark.parametrize("support, K", [
    (complete(3), 16),
    (box_srw(2, 1).submatrix(SQUARE.range) > 0, 14),
    (np.roll(np.eye(4, dtype=bool), 1, axis=1) | np.roll(np.eye(4, dtype=bool), 2, axis=1), 14),
], ids=["complete-3", "square", "one-way-4"])
def test_complex_coefficients_match_reference(support, K):
    rng = np.random.default_rng(67)
    B = rates_on(support) * np.exp(1j * rng.uniform(0, 2 * np.pi, support.shape))
    assert_coefficients_match(B, K)


def test_covers_are_the_sets_with_a_cycle_cover():
    # against the permutations of every site subset
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        support = rng.random((n, n)) < rng.uniform(0.2, 0.9)
        np.fill_diagonal(support, False)
        want = [S for m in range(2, n + 1) for S in itertools.combinations(range(n), m)
                if any(all(support[x, y] for x, y in zip(S, p))
                       for p in itertools.permutations(S))]
        assert _covers(support) == want


def test_recurrence_matches_mpmath_at_degree_30():
    # the same recurrence in 40 digits, on its own dict of monomials: the
    # float recurrence loses about 2e-16 per degree to rounding
    mpmath.mp.dps = 40
    B = rates_on(complete(4), seed=71)
    covers = [S for m in range(2, 5) for S in itertools.combinations(range(4), m)]
    minor = {S: (-1) ** len(S) * mpmath.det(mpmath.matrix(B[np.ix_(S, S)].tolist()))
             for S in covers}
    layers = [{(0, 0, 0, 0): mpmath.mpf(1)}]  # d! a_d by degree
    for k in range(1, 31):
        layers.append({})
        for S in (S for S in covers if len(S) <= k):
            for d, c in layers[k - len(S)].items():
                e = tuple(v + (x in S) for x, v in enumerate(d))
                layers[k][e] = layers[k].get(e, 0) - minor[S] * c
    coef = {d: c for layer in layers for d, c in layer.items()}
    got = table_coefficients(B, 30)
    assert got.keys() == coef.keys()
    for d, c in coef.items():
        want = c / prod(mpmath.factorial(v) for v in d)
        assert abs(got[d] - want) <= 1e-13 * abs(want), d


def test_acyclic_support_has_only_the_zero_flow():
    B = np.triu(np.random.default_rng(59).uniform(0.1, 0.8, (4, 4)), 1)
    assert shared_table(B != 0, 30).size(30) == 1
    # theta is 1; the bound, from the majorant e^s, does not see the support
    value, err = theta_integral_series(B, np.array([0.3, 1.0, 2.0, 0.7]))
    assert value == 1.0 and 0.0 < err <= 1e-12


def test_flow_table_extends_in_place():
    tab = _MonomialTable(complete(4))
    tab.extend(12)
    before = tab.powers.copy()
    tab.extend(18)
    assert tab.max_degree == 18 and np.array_equal(tab.powers[: len(before)], before)
    # one table per support pattern, shared by every series on it
    assert shared_table(complete(4), 5) is shared_table(complete(4), 9)
    assert shared_table(complete(4), 5) is not shared_table(np.triu(complete(4)), 5)
    # a series whose weights reach degree 12 extends them to 18 in place
    series = _Series(rates_on(complete(4)), [((), 1.0)], 1e-10)
    series._weights(12)
    series._weights(18)
    assert series._weights(18).shape[0] == shared_table(complete(4), 18).size(18)
    assert_coefficients_match(rates_on(complete(4)), 18)


def test_two_word_keys_on_a_long_cycle():
    # on the one-way 13-cycle the only cover is the whole cycle, so the
    # monomials are k (1, ..., 1) and theta is sum_k (prod_e B_e l)^k / k!^13;
    # past degree 63 a key needs 6 bits on each of 13 sites, two words
    support = np.roll(np.eye(13, dtype=bool), 1, axis=1)
    tab = _MonomialTable(support)
    tab.extend(70)
    assert tab.size(70) == 6
    assert np.array_equal(tab.powers, np.arange(6)[:, None] * np.ones((1, 13)))
    B = 1.6 * support
    value, err = theta_integral_series(B, np.ones(13))
    want = sum(1.6 ** (13 * k) / factorial(k) ** 13 for k in range(6))
    assert abs(value - want) <= 1e-15 * want


def test_enumerate_flows_size2():
    assert shared_table(complete(2), 0).size(0) == 1
    assert shared_table(complete(2), 4).size(4) == 3  # d = (k, k) for k in 0..2


def test_enumerate_flows_size3_degree2():
    assert shared_table(complete(3), 2).size(2) == 4  # zero plus the three pairs


def test_enumerate_flows_capacity_guard(monkeypatch):
    monkeypatch.setattr("loctimes.density.TABLE_LIMIT", 100)
    with pytest.raises(CapacityError):
        shared_table(complete(4), 40)
    # the layer that passed the limit is dropped; those below it stay whole
    tab = _MonomialTable(complete(4))
    with pytest.raises(CapacityError, match="more than 100 monomials and triples"):
        tab.extend(40)
    assert tab.kept <= 100
    assert_monomials_match(tab, complete(4))
    monkeypatch.undo()
    tab.extend(tab.max_degree + 1)
    assert tab.kept > 100
    assert_monomials_match(tab, complete(4))
    # the scan of 2^6 - 7 = 57 site subsets is refused before it starts
    monkeypatch.setattr("loctimes.density.TABLE_LIMIT", 56)
    monkeypatch.setattr("loctimes.density.linear_sum_assignment", None)
    with pytest.raises(CapacityError, match="more than 56 site subsets"):
        _covers(complete(6))
    monkeypatch.undo()
    # 4,083 covers on 12 sites: refused at degree 9, after 0.5 s of set-up
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        _MonomialTable(complete(12)).extend(12)
    assert time.perf_counter() - start < 1.0


def test_theta_series_zero_matrix():
    value, err = theta_integral_series(np.zeros((2, 2)), np.array([1.0, 2.0]))
    assert value == 1.0


def test_theta_series_bessel():
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    value, err = theta_integral_series(B, np.array([1.0, 1.0]))
    assert abs(value - I0_2) < 1e-10


@pytest.mark.parametrize("l", [(0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0)],
                         ids=["zero", "negative", "nan", "inf"])
def test_theta_series_rejects_bad_times(l):
    # rejected before any work: log and sqrt would warn, and the series
    # then raise a ConvergenceError at degree 80
    with pytest.raises(ValueError, match="all local times must be positive and finite"):
        theta_integral_series(np.array([[0.0, 1.0], [1.0, 0.0]]), l)
    with pytest.raises(ValueError, match="match l"):
        theta_integral_series(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((1, 2)))


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


def test_finite_difference_reports_its_series_degree():
    # from 0 to 1 the operator has order 0: both steps' stencils are the
    # point itself, so the batch stops where theta alone does there
    res = density_finite_difference(TWO_STATE, SPEC_AB, L_UNIT)
    A = TWO_STATE.submatrix((0, 1))
    assert set(res.meta) == {"step", "degree"}
    assert res.meta["degree"] == _Series(A, [((), 1.0)], FD_TOL)._sum(np.ones((1, 2)))[2]


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


@pytest.mark.parametrize("r", [(1.0, np.nan, 1.0), (1.0, np.inf, 1.0), (1.0, 0.0, 1.0),
                               (1.0, 1.0), (1.0, 1.0, 1.0, 1.0)],
                         ids=["nan", "inf", "zero", "short", "long"])
def test_gauge_check_rejects_bad_radii(r):
    # a nan or inf radius returned nan with warnings, a wrong length a
    # numpy broadcast error
    spec = RangeSpec((0, 1, 2), 0, 2)
    with pytest.raises(ValueError, match="3 positive, finite entries"):
        gauge_invariance_check(random_generator(3, np.random.default_rng(11)), spec,
                               [0.2, 0.5, 0.3], r)


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
    # cap: the closed form e^{-(l0+l1)} I_0(2 sqrt(l0 l1)) is 0.0516115 at
    # (30, 30), 0.0326 at (75, 75) and 1.65e-22 at (20.5148, 129.4852),
    # against truncated sums of 0.0514074, 1.5e-11 and 2.34e-24; the last
    # passed an absolute error floor of 1e-13
    ev = SeriesEvaluator(TWO_STATE, SPEC_AB)
    for l in ([30.0, 30.0], [75.0, 75.0], [20.5148, 129.4852]):
        with pytest.raises(ConvergenceError, match="series not converged at degree 80"):
            ev.values(np.array([[1.0, 1.0], l]))
        with pytest.raises(ConvergenceError, match="series not converged at degree 80"):
            density_series(TWO_STATE, SPEC_AB, l)
    assert abs(ev.values(np.array([[1.0, 1.0]]))[0][0] - RHO_12) < 1e-10


@pytest.mark.parametrize("L, match", [
    (np.ones(4), "shape"),
    (np.ones((2, 3)), "shape"),
    (np.ones((1, 2, 4)), "shape"),
    ([[0.25, 0.25, 0.5, 0.0]], "positive"),
    ([[0.25, 0.25, 0.75, -0.25]], "positive"),
    ([[0.25, 0.25, 0.5, np.nan]], "positive"),
    ([[0.25, 0.25, 0.5, np.inf]], "positive"),
], ids=["1-d", "width", "3-d", "zero", "negative", "nan", "inf"])
def test_batch_values_reject_bad_rows(L, match):
    # rejected before any work: a zero or negative entry would warn in log
    # and divide, then raise a ConvergenceError at degree 80
    ev = SeriesEvaluator(*bench_chain(2))
    with pytest.raises(ValueError, match=match):
        ev.values(L)


@pytest.mark.parametrize("l", [(np.nan, 1.0), (np.inf, 1.0)], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", [density_series, density_quadrature, density_finite_difference,
                                local_time_density])
def test_point_evaluators_reject_non_finite_times(fn, l):
    # rejected before any work: the quadrature would return -0.0 with a nan
    # error estimate, the series a ConvergenceError at degree 80
    with pytest.raises(ValueError, match="positive and finite"):
        fn(TWO_STATE, SPEC_AB, l)


def test_batch_blocks_match_rows_one_at_a_time():
    # 820 grid rows, the one nearest the boundary (min l = 3.7e-6) among
    # them, summed through degree 12 by the split: its 7^2 x 7^2 box
    # takes 218 rows a block, so the batch spans four blocks and its last
    # is ragged; a lone row goes through the monomials
    ev = SeriesEvaluator(*bench_chain(2))
    G = simplex_grid(16)
    L = np.concatenate([G[::5], G[G.min(axis=1) < 1e-5]])
    vals, bounds = ev.values(L)
    K = ev._sum(L)[2]
    assert ev._side(1, -1, K) is None and ev._side(len(L), -1, K) == 7
    rows = (4 * PASS_BLOCK - 1) // 7 ** 4
    assert len(L) > 3 * rows and len(L) % rows
    one_pass = ev._sum(L, degree=K)[:2]
    for i, row in enumerate(L):
        v, b, _ = ev._sum(row[None, :], degree=K)
        for batch_v, batch_b in (vals, bounds), one_pass:
            assert abs(batch_v[i] - v[0]) <= 1e-13 * abs(v[0])
            assert abs(batch_b[i] - b[0]) <= 1e-13 * b[0]


def pass_sum(series, L, lo, hi):
    """``series._pass_sum`` over the degrees lo+1 .. hi at the rows of ``L``."""
    return series._pass_sum(L, np.log(L), lo, hi)


def tight_side(series, lo, hi):
    """The smallest box that holds the pass lo+1 .. hi: 1 + the largest
    site exponent among its monomials (1 where it has none)."""
    tab = series.table
    return 1 + int(tab.powers[tab.size(lo) : tab.size(hi)].max(initial=0))


def reference_pass(series, L, lo, hi):
    """sum_j det_j sum_d a_d prod_{x in Q_j} 2 d_x l^d prod_{x in Q_j} 0.5 / l_x
    over the monomials l^d of degrees lo+1 .. hi, from the table's powers
    and the series' ``_weights``, term by term, and the same sum of the
    terms' moduli, the scale of its rounding."""
    tab = series.table
    tab.extend(hi)
    m0, m1 = tab.size(lo), tab.size(hi)
    W = series._weights(hi)[m0:m1]
    monomials = np.prod(L[:, None, :] ** tab.powers[None, m0:m1], axis=2)
    total, moduli = np.zeros(len(L), dtype=W.dtype), np.zeros(len(L))
    for j, (Q, det) in enumerate(series.terms):
        factor = det * np.prod(0.5 / L[:, list(Q)], axis=1)
        total += factor * (monomials @ W[:, j])
        moduli += np.abs(factor) * (monomials @ np.abs(W[:, j]))
    return total, moduli


def pass_case(name):
    """A series, the rows of one pass and the form its cost rule takes."""
    G = simplex_grid(16)
    if name == "grid":
        return SeriesEvaluator(*bench_chain(2)), G[::7], "split"
    if name == "one-row":
        return SeriesEvaluator(*bench_chain(2)), G[[4080]], "monomials"
    if name == "a=b":
        gen, _ = bench_chain(3)
        return SeriesEvaluator(gen, RangeSpec((0, 1, 2, 3), 0, 0)), G[::7], "split"
    if name == "complex":
        phases = np.exp(1j * np.random.default_rng(31).uniform(0, 6, (3, 3)))
        L = 2.0 * np.random.default_rng(37).dirichlet(np.ones(3), 2000)
        return _Series(rates_on(complete(3), seed=29) * phases, [((), 1.0)], 1e-12), L, "split"
    if name == "acyclic":
        B = np.triu(np.random.default_rng(59).uniform(0.1, 0.8, (4, 4)), 1)
        L = np.random.default_rng(61).dirichlet(np.ones(4), 3000)
        return _Series(B, [((), 1.0), ((1,), 0.5), ((0, 2), -2.0)], 1e-12), L, "monomials"
    if name == "5-site":
        # a head of two sites and a tail of three, terms on either half and across
        L = np.random.default_rng(71).dirichlet(np.ones(5), 100)
        terms = [((), 1.0), ((1,), 0.5), ((0, 3), -2.0), ((2, 4), 1.5)]
        return _Series(rates_on(complete(5), seed=73), terms, 1e-12), L, "split"
    return SeriesEvaluator(*bench_chain(2)), np.ones((0, 4)), "monomials"  # zero rows


@pytest.mark.parametrize("form", ["chosen", "split", "monomials"])
@pytest.mark.parametrize("name", ["grid", "one-row", "a=b", "complex", "acyclic", "zero-rows",
                                  "5-site"])
def test_pass_matches_a_reference_sum(name, form, monkeypatch):
    # each pass, in the form its cost rule chooses and forced into either
    # (the split's box at the smallest side that holds the pass), against
    # the plain sum over the monomials, to 1e-13 of the sum of its terms'
    # moduli (at a = b the sum through degree 12 falls to 3e-4 of it); the
    # acyclic support has only l^0, which the derivative terms fold away,
    # and no monomial past degree 0
    series, L, chosen = pass_case(name)
    series.table.extend(14)
    assert (series._side(len(L), -1, 12) is None) == (chosen == "monomials")
    if form == "split":
        monkeypatch.setattr(series, "_side", lambda rows, lo, hi: tight_side(series, lo, hi))
    if form == "monomials":
        monkeypatch.setattr(series, "_side", lambda rows, lo, hi: None)
    for lo, hi in [(-1, 12), (8, 12), (12, 14), (-1, 0), (0, 4)]:
        got = pass_sum(series, L, lo, hi)
        want, moduli = reference_pass(series, L, lo, hi)
        assert got.shape == (len(L),) and got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 1e-13 * moduli), (lo, hi)


def test_two_state_odd_degrees_have_no_monomials(monkeypatch):
    ev = SeriesEvaluator(TWO_STATE, SPEC_AB)
    monkeypatch.setattr(ev, "_side", lambda rows, lo, hi: tight_side(ev, lo, hi))
    L = np.random.default_rng(67).uniform(0.5, 1.5, (50, 2))
    ev.table.extend(9)
    for lo, hi in [(0, 1), (2, 3), (8, 9)]:
        assert ev.table.size(hi) == ev.table.size(lo)
        assert np.array_equal(pass_sum(ev, L, lo, hi), np.zeros(50))
    assert np.allclose(pass_sum(ev, L, -1, 2), reference_pass(ev, L, -1, 2)[0],
                       rtol=1e-13, atol=0)


def test_zero_rows_give_empty_arrays():
    ev = SeriesEvaluator(*bench_chain(2))
    vals, bounds = ev.values(np.ones((0, 4)))
    assert vals.shape == bounds.shape == (0,)


def test_points_and_stencils_take_the_monomials(monkeypatch):
    # a lone row and the finite differences' 18-row stencil batch cannot
    # pay back the box's fold, a 512-row grid batch does; nothing is kept
    # between calls, so a batch's bits do not depend on the batches before
    gen, spec = bench_chain(2)
    forms, side = [], _Series._side

    def logged(self, rows, lo, hi):
        forms.append((rows, side(self, rows, lo, hi)))
        return forms[-1][1]

    monkeypatch.setattr(_Series, "_side", logged)
    l = simplex_grid(4)[9]
    density_series(gen, spec, l)
    density_finite_difference(gen, spec, l)
    assert {rows for rows, _ in forms} == {1, 18}
    assert all(s is None for _, s in forms)
    forms.clear()
    ev = SeriesEvaluator(gen, spec)
    G = simplex_grid(8)
    first = ev.values(G)
    assert {rows for rows, _ in forms} == {512} and forms[0][1] is not None
    ev.values(simplex_grid(16))
    assert all(np.array_equal(a, b) for a, b in zip(first, ev.values(G)))


def test_batch_stopping_rule_is_pinned():
    # the degree, values and bounds of ``values`` on eleven grid rows, one
    # of them 3.7e-6 from the boundary; the bound arithmetic may move a
    # bound in its last digits, never the degree
    ev = SeriesEvaluator(*bench_chain(2))
    L = simplex_grid(16)[[0, 455, 910, 1365, 1820, 2275, 2730, 3185, 3640, 4095, 4080]]
    vals, bounds = ev.values(L)
    assert ev._sum(L)[2] == 12
    ref_vals = [0.008599233800378022, 0.008587733436360274, 0.009020163844681356,
                0.008782024446074465, 0.009195828611573892, 0.008722450408050565,
                0.008995462964583594, 0.008939700225169584, 0.009057125427775549,
                0.00904508312643695, 0.009040885259213028]
    ref_bounds = [4.0473276448532775e-26, 2.5608718303523923e-15, 6.919752874554834e-15,
                  1.721410278158699e-14, 2.724718316329744e-14, 3.323414147858892e-14,
                  3.179917378232503e-13, 5.313368921161516e-15, 4.022777710834198e-16,
                  4.889881040878928e-18, 1.1866441013732623e-17]
    assert np.allclose(vals, ref_vals, rtol=1e-13, atol=0)
    assert np.allclose(bounds, ref_bounds, rtol=1e-14, atol=0)


def closed_form_bounds(s, C, K):
    """sum_m C_m T(s, K - m) at one degree K, with T(s, k) = min(e^s,
    s^(k+1) / (k+1)! / (1 - s / (k+2))) for s < k + 2, and e^s for larger s
    or k < 0: the closed form the stopping rule tests."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        es = np.exp(s)
        T = []
        for m in range(len(C)):
            k = K - m
            r = s / (k + 2)
            closed = np.exp((k + 1) * np.log(s) - gammaln(k + 2)) / (1 - r)
            T.append(es if k < 0 else np.where(r < 1, np.minimum(es, closed), es))
    return np.einsum("mi,mi->i", C, np.array(T))


def scan_stop(series, L):
    """The stopping degree of ``series`` at the rows of ``L`` and the values
    summed through it, by a linear scan over the degrees; None where no
    degree up to MAX_DEGREE qualifies.  Each pass from K sums through the
    first degree k > K at which every row's bound is within tol (|total| +
    2 bound(K)), and the sum stops once every bound is within tol |total|."""
    L = np.asarray(L, dtype=float)
    s, C = series._majorant(L)
    logL = np.log(L)
    total, K = np.zeros(len(L)), -1
    while True:
        reach = series.tol * (np.abs(total) + 2 * closed_form_bounds(s, C, K))
        hi = next((k for k in range(K + 1, loctimes.density.MAX_DEGREE + 1)
                   if np.all(closed_form_bounds(s, C, k) <= reach)), None)
        if hi is None:
            return None
        total = total + series._pass_sum(L, logL, K, hi)
        if np.all(closed_form_bounds(s, C, hi) <= series.tol * np.abs(total)):
            return hi, np.exp(L @ series.diag) * total
        K = hi


def stop_case(name):
    """A series and the rows it is summed at, for
    test_stopping_degree_matches_a_linear_scan."""
    if name == "complex":
        phases = np.exp(1j * np.random.default_rng(31).uniform(0, 6, (3, 3)))
        L = 2.0 * np.random.default_rng(37).dirichlet(np.ones(3), 3)
        return _Series(rates_on(complete(3), seed=29) * phases, [((), 1.0)], 1e-12), L
    if name in ("two-state", "two-state-capped", "past-the-cap"):
        l = (30.0, 30.0) if name == "past-the-cap" else (4.0, 6.0)
        return SeriesEvaluator(TWO_STATE, SPEC_AB), np.array([l])
    rows = {"one-row": [4080], "few-rows": [0, 910, 2275, 3640, 4095],
            "row-blocks": slice(None, None, 41)}[name]
    return SeriesEvaluator(*bench_chain(2)), simplex_grid(16)[rows]


@pytest.mark.parametrize("tail_start", [1, 16])
@pytest.mark.parametrize("name", ["one-row", "few-rows", "row-blocks", "complex", "two-state",
                                  "two-state-capped", "past-the-cap"])
def test_stopping_degree_matches_a_linear_scan(name, tail_start, monkeypatch):
    # from a first table of one degree the search doubles through 2, 4, 8,
    # ...; the two-state point needs degree 37, past a first table of 16,
    # and is refused at a cap of 30; with PASS_BLOCK at 2^10 the first
    # table of 16 degrees takes the 100 grid rows in six blocks of 16 or 17
    monkeypatch.setattr("loctimes.density.TAIL_START", tail_start)
    if name == "two-state-capped":
        monkeypatch.setattr("loctimes.density.MAX_DEGREE", 30)
    if name == "row-blocks":
        monkeypatch.setattr("loctimes.density.PASS_BLOCK", 2 ** 10)
    series, L = stop_case(name)
    want = scan_stop(series, L)
    if want is None:
        cap = loctimes.density.MAX_DEGREE
        with pytest.raises(ConvergenceError, match=f"series not converged at degree {cap}$"):
            series._sum(L)
        return
    value, _, degree = series._sum(L)
    assert degree == want[0]
    assert np.array_equal(value, want[1])


def test_coefficient_memo_serves_interleaved_rates(monkeypatch):
    # two real rate matrices and a complex one on one support take turns on
    # the table's one list of coefficients, at local times that raise the
    # degree, so that a turn extends the list or replaces it; the last
    # series is new and needs fewer degrees than the list holds.  Every
    # value, bound and degree is that of a series on a table of its own
    B1, B2 = rates_on(complete(3), seed=1), rates_on(complete(3), seed=2)
    Bc = B1 * np.exp(1j * np.random.default_rng(3).uniform(0, 2 * np.pi, (3, 3)))
    rng = np.random.default_rng(5)
    points = [scale * rng.dirichlet(np.ones(3), size=4) for scale in (0.5, 1.0, 2.0, 4.0)]
    turns = [(B1, 0), (Bc, 0), (B1, 2), (B2, 1), (Bc, 3), (B2, 3), (B1, 3), (B1, 1), (B1, 0)]

    def alone(B, L):
        monkeypatch.setattr("loctimes.density._TABLES", {})
        return _Series(B, [((), 1.0)], 1e-12)._sum(L)

    want = [alone(B, points[i]) for B, i in turns]
    monkeypatch.setattr("loctimes.density._TABLES", {})
    series = {id(B): _Series(B, [((), 1.0)], 1e-12) for B in (B1, B2, Bc)}
    series_of = [series[id(B)] for B, _ in turns[:-1]] + [_Series(B1, [((), 1.0)], 1e-12)]
    degrees = []
    for ev, (B, i), (value, bound, degree) in zip(series_of, turns, want):
        got = ev._sum(points[i])
        assert got[2] == degree
        assert np.array_equal(got[0], value) and np.array_equal(got[1], bound)
        degrees.append(degree)
    assert len(loctimes.density._TABLES) == 1
    assert len(set(degrees)) > 2 and degrees[-1] < len(series_of[-1].table.coef[1]) - 1


def test_dispatcher_returns_result():
    res = local_time_density(TWO_STATE, SPEC_AB, L_UNIT)
    assert res.method in ("series", "quadrature")
    assert abs(res.value - RHO_12) < 1e-8


def flow_sums(B, l, K, Qs):
    """Explicit per-flow sums over the balanced flows of degree <= K of
    prod B^n / n! * prod l^(deg/2) * prod_{x in Q} deg_x, one per Q."""
    counts = flow_counts(len(l), K)
    inv_fact = np.vectorize(lambda k: 1.0 / factorial(k))(counts)
    coeff = np.prod((B[None] ** counts) * inv_fact, axis=(1, 2))
    deg = counts.sum(axis=1) + counts.sum(axis=2)
    terms = coeff * np.prod(l[None, :] ** (deg / 2), axis=1)
    return [np.sum(terms * np.prod(deg[:, list(Q)], axis=1)) for Q in Qs]


def explicit_density(gen, spec, l, K):
    """The series density truncated at degree K, summed flow by flow."""
    A = gen.rates
    B = A - np.diag(np.diag(A))
    terms = _derivative_expansion(B, spec.range.index(spec.start), spec.range.index(spec.end))
    sums = flow_sums(B, l, K, [Q for Q, _ in terms])
    total = sum(det * np.prod(0.5 / l[list(Q)]) * s for (Q, det), s in zip(terms, sums))
    return np.exp(np.diag(A) @ l) * total


def test_theta_monomial_sum_matches_flow_sum():
    rng = np.random.default_rng(29)
    for n in (3, 4):
        l = rng.uniform(0.05, 0.2, size=n)
        B = rng.uniform(0.1, 0.8, size=(n, n))
        np.fill_diagonal(B, 0.0)
        for M in (B, B * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n, n)))):
            value, _ = theta_integral_series(M, l, tol=1e-9)
            K = _Series(M, [((), 1.0)], 1e-9)._sum(l[None, :])[2]
            (expected,) = flow_sums(M, l, K, [()])
            assert abs(value - expected) <= 1e-12 * abs(expected)


def test_theta_complex_diagonal():
    # a complex diagonal is the plain factor exp(diag . l); the tail bound
    # scales by its modulus and stays real
    rng = np.random.default_rng(47)
    M = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    l = np.array([0.4, 0.7, 0.5])
    value, err = theta_integral_series(M, l)
    assert isinstance(err, float) and err >= 0.0
    off = M - np.diag(np.diag(M))
    K = _Series(M, [((), 1.0)], 1e-12)._sum(l[None, :])[2]
    (expected,) = flow_sums(off, l, K, [()])
    expected *= np.exp(np.diag(M) @ l)
    assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("n, start, end", [(3, 0, 1), (4, 1, 1)])
def test_series_monomial_sum_matches_flow_sum(n, start, end):
    rng = np.random.default_rng(31 + n)
    gen = random_generator(n, rng)
    spec = RangeSpec(tuple(range(n)), start, end)
    # a short horizon keeps the degree, and the explicit flow list, small
    L = 0.2 * rng.dirichlet(np.ones(n), size=3)
    for l in L:
        res = density_series(gen, spec, dict(zip(range(n), l)))
        expected = explicit_density(gen, spec, l, res.meta["degree"])
        assert abs(res.value - expected) <= 1e-12 * abs(expected)
    ev = SeriesEvaluator(gen, spec)
    vals, _, K = ev._sum(L)
    for l, v in zip(L, vals):
        expected = explicit_density(gen, spec, l, K)
        assert abs(v - expected) <= 1e-12 * abs(expected)


def test_monomial_counts_and_meta():
    # the balanced flows of these degrees number 17,782 and 41,293
    tab = shared_table(complete(4), 16)
    assert (tab.size(14), tab.size(16)) == (1380, 2205)
    gen = random_generator(4, np.random.default_rng(37))
    res = density_series(gen, RangeSpec((0, 1, 2, 3), 0, 2), [0.3, 0.2, 0.4, 0.1])
    assert set(res.meta) == {"tol", "range_size", "degree", "monomials"}
    assert res.meta["monomials"] == tab.size(res.meta["degree"])


@pytest.mark.parametrize("spec, l, max_degree", [
    (SPEC_AB, (1.0, 1.5), 6),
    (SPEC_AA, (2.0, 0.5), 6),
    (SPEC_AB, (20.5148, 129.4852), 80),
])
def test_tail_bound_covers_truncation_error(spec, l, max_degree, monkeypatch):
    # two-state closed forms at 50 digits: e^{-(l0+l1)} I_0(2 sqrt(l0 l1))
    # from 0 to 1, and e^{-(l0+l1)} sqrt(l0/l1) I_1(2 sqrt(l0 l1)) from 0 to 0
    mpmath.mp.dps = 50
    l0, l1 = (mpmath.mpf(x) for x in l)
    z = 2 * mpmath.sqrt(l0 * l1)
    if spec.end == 1:
        exact = mpmath.exp(-(l0 + l1)) * mpmath.besseli(0, z)
    else:
        exact = mpmath.exp(-(l0 + l1)) * mpmath.sqrt(l0 / l1) * mpmath.besseli(1, z)
    # a loose tolerance keeps the truncated sums from raising
    monkeypatch.setattr("loctimes.density.MAX_DEGREE", max_degree)
    ev = SeriesEvaluator(TWO_STATE, spec, tol=1e9)
    value, err = ev.value(np.array(l))
    vals, errs = ev.values(np.array([l]))
    for v, e in ((value, err), (vals[0], errs[0])):
        truncation = abs(mpmath.mpf(v) - exact)
        assert truncation > 1e-6 * exact  # the truncation is visible
        assert truncation <= e



@pytest.mark.parametrize("spec, l", [
    (spec, l) for spec in (SPEC_AB, SPEC_AA) for l in ((1.0, 1.5), (2.0, 0.5), (1e-3, 1e-3))
])
def test_two_state_bound_covers_truncation_at_every_degree(spec, l):
    # the closed forms of test_tail_bound_covers_truncation_error at 50
    # digits, against the series cut at each degree K; past the degree
    # where the error meets rounding, the monomials exp(deg/2 log l) are
    # allowed about |deg log l| ulps
    mpmath.mp.dps = 50
    l0, l1 = (mpmath.mpf(x) for x in l)
    z = 2 * mpmath.sqrt(l0 * l1)
    if spec.end == 1:
        exact = mpmath.exp(-(l0 + l1)) * mpmath.besseli(0, z)
    else:
        exact = mpmath.exp(-(l0 + l1)) * mpmath.sqrt(l0 / l1) * mpmath.besseli(1, z)
    ev = SeriesEvaluator(TWO_STATE, spec)
    for K in range(13):
        (value,), (err,), _ = ev._sum(np.array([l]), degree=K)
        assert float(abs(mpmath.mpf(value) - exact)) <= err + 1e-14 * float(exact)


@pytest.mark.parametrize("l", [1e-4, 1e-2, 1.0])
def test_bound_covers_truncation_with_two_derivatives(l):
    # 0 -> 1 on four sites differentiates in both free sites, Q = {2, 3};
    # the reference is the series summed 8 degrees further
    gen = random_generator(4, np.random.default_rng(37))
    spec = RangeSpec((0, 1, 2, 3), 0, 1)
    ev = SeriesEvaluator(gen, spec)
    assert max(len(Q) for Q, _ in ev.terms) == 2
    L = np.full((1, 4), l)
    for K in range(13):
        (value,), (err,), _ = ev._sum(L, degree=K)
        (ref,), _, _ = ev._sum(L, degree=K + 8)
        assert abs(value - ref) <= err + 1e-14 * abs(ref)


@pytest.mark.parametrize("l", [(0.3, 0.2, 0.4, 0.1), (1e-3, 2e-3, 1e-2, 5e-3)])
def test_bound_is_the_majorant_derivative(l):
    # the reported bound is |e^{diag l}| sum_j |det_j| d_Q T(s(l), K), with
    # T(s, K) = e^s - sum_{i<=K} s^i / i!, differentiated here by mpmath at
    # 30 digits rather than through the partitions of Q
    gen = random_generator(4, np.random.default_rng(37))
    ev = SeriesEvaluator(gen, RangeSpec((0, 1, 2, 3), 0, 1))
    mpmath.mp.dps = 30
    absB = np.abs(ev.B)
    pairs = [(x, y) for x in range(4) for y in range(4) if x != y]
    for K in (0, 1, 2, 5, 9):
        def tail(*x):
            s = sum(mpmath.mpf(absB[a, b]) * mpmath.sqrt(x[a] * x[b]) for a, b in pairs)
            return mpmath.exp(s) - sum(s ** i / mpmath.factorial(i) for i in range(K + 1))

        ref = sum(abs(det) * mpmath.diff(tail, l, [int(x in Q) for x in range(4)])
                  for Q, det in ev.terms) * mpmath.exp(np.dot(ev.diag, l))
        (_,), (err,), _ = ev._sum(np.array([l]), degree=K)
        assert abs(err / float(ref) - 1) <= 1e-12


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_series_meets_tol_at_small_local_times(tol):
    # at l = 1e-4 the derivative factors 1 / (2 l_x) make the tail past a
    # degree far larger than the strength alone suggests; a degree chosen
    # from the strength stopped at 5 for tol 1e-9, 2.7e-7 relative off,
    # and at 6 for tol 1e-12, 8.4e-11 off
    gen = random_generator(6, np.random.default_rng(41))
    spec = RangeSpec(tuple(range(6)), 0, 1)
    res = density_series(gen, spec, [1e-4] * 6, tol=tol)
    ev = SeriesEvaluator(gen, spec, tol=tol)
    (ref,), _, _ = ev._sum(np.full((1, 6), 1e-4), degree=res.meta["degree"] + 2)
    assert abs(res.value - ref) <= res.error_estimate <= tol * abs(res.value)


def test_quadrature_node_limit_raises_before_allocating(monkeypatch):
    # the sized grids here have 17-18 and 21-22 nodes on each of 7 free
    # angles, 2.8e9 nodes together, past QUADRATURE_NODE_LIMIT (2^24), so
    # not one node is evaluated
    def no_nodes(*args):
        raise AssertionError("a node was evaluated")

    monkeypatch.setattr("loctimes.density._quadrature_integrand", no_nodes)
    gen = random_generator(8, np.random.default_rng(41))
    spec = RangeSpec(tuple(range(8)), 0, 1)
    with pytest.raises(ConvergenceError, match="quadrature not converged"):
        density_quadrature(gen, spec, [0.125] * 8)


def _phase_tensor_integrand(A, lv, th, a_pos, b_pos):
    """The quadrature integrand in its unfactored form: a (nodes, n, n)
    tensor of phases e^{i(th_x - th_y)}, and the potential weighted by
    sqrt(l_y / l_x)."""
    n = len(lv)
    B = A - np.diag(np.diag(A))
    sql = np.sqrt(lv)
    phase = np.exp(1j * (th[:, :, None] - th[:, None, :]))
    expo = np.exp(np.einsum("xy,ixy->i", A * np.outer(sql, sql), phase))
    pot = np.einsum("xy,ixy->ix", B * np.sqrt(np.outer(1.0 / lv, lv)), phase)
    D = np.broadcast_to(-B, phase.shape).astype(complex)
    D[:, np.arange(n), np.arange(n)] += pot
    D[:, b_pos, :] = 0.0
    D[:, :, a_pos] = 0.0
    D[:, b_pos, a_pos] = 1.0
    return np.linalg.det(D) * expo


@pytest.mark.parametrize("a_pos, b_pos", [(0, 2), (1, 1), (3, 0)])
def test_quadrature_integrand_matches_phase_tensor(a_pos, b_pos):
    rng = np.random.default_rng(29)
    gen = random_generator(5, rng, scale=2.0)  # non-symmetric, killing at 4
    A = gen.submatrix((0, 1, 2, 3))
    lv = 3.0 * rng.dirichlet(np.ones(4))
    th = rng.uniform(0.0, 2 * np.pi, size=(500, 4))
    th[:, a_pos] = 0.0
    got = _quadrature_integrand(A, lv, np.exp(1j * th), a_pos, b_pos)
    ref = _phase_tensor_integrand(A, lv, th, a_pos, b_pos)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("gen, spec, lv, parity", [
    (random_generator(5, np.random.default_rng(40)), RangeSpec((0, 1, 2, 3), 0, 3),
     4 * np.random.default_rng(140).dirichlet(np.ones(4)), 1),
    (random_generator(5, np.random.default_rng(42)), RangeSpec((0, 1, 2, 3), 3, 0),
     4 * np.random.default_rng(142).dirichlet(np.ones(4)), 0),
    (random_generator(5, np.random.default_rng(43)), RangeSpec((0, 1, 2, 3), 1, 1),
     4 * np.random.default_rng(143).dirichlet(np.ones(4)), 1),
    (random_generator(5, np.random.default_rng(46)), RangeSpec((0, 1, 2, 3), 2, 2),
     4 * np.random.default_rng(146).dirichlet(np.ones(4)), 0),
    (TWO_STATE, SPEC_AB, np.array([1.0, 2.0]), 0),
    (TWO_STATE, SPEC_AA, np.array([1.0, 1.0]), 1),
    (TWO_STATE, RangeSpec((0,), 0, 0), np.array([1.0]), None),
], ids=["ab-odd", "ab-even", "aa-odd", "aa-even", "two-state-even", "two-state-odd", "one-site"])
def test_half_grid_matches_the_full_grid(gen, spec, lv, parity):
    # the quadrature evaluates the nodes whose last angle has index
    # k <= N / 2 and doubles the conjugate pairs; summed over every node of
    # the same grid, the unfactored integrand gives the same mean, and its
    # imaginary part cancels.  An even N has self-conjugate nodes at k = N / 2.
    A = gen.submatrix(spec.range)
    a_pos, b_pos = spec.range.index(spec.start), spec.range.index(spec.end)
    res = density_quadrature(gen, spec, lv)
    grids = [_quadrature_grid(A, lv, a_pos, 1e-9)]
    grids.append(_refine(grids[0]))
    while prod(grids[-1].tolist()) != res.meta["nodes"]:
        grids.append(_refine(grids[-1]))
    N = grids[-1]
    if parity is not None:
        assert N[-1] % 2 == parity
    cols = [x for x in range(spec.size) if x != a_pos]
    th = np.zeros((prod(N.tolist()), spec.size))
    th[:, cols] = list(itertools.product(*[2 * np.pi * np.arange(k) / k for k in N]))
    full = _phase_tensor_integrand(A, lv, th, a_pos, b_pos).mean()
    assert abs(full.imag) <= 1e-13 * abs(full.real)
    assert abs(res.value - full.real) <= 1e-13 * abs(full.real)
    assert res.meta["evaluated"] == sum(prod(g[:-1].tolist()) * (int(g[-1]) // 2 + 1) if len(g) else 1
                                        for g in grids)


@pytest.mark.parametrize("spec, order", [(SPEC_AB, 0), (SPEC_AA, 1)])
def test_quadrature_converges_past_1024_per_angle(spec, order):
    # exp(-l0 - l1 + 2 sqrt(l0 l1)) I_k(2 sqrt(l0 l1)) (sqrt(l0 / l1) for
    # 0 -> 0) needs about 3,300 nodes per angle here; a grid stopped at
    # 1024 is 14.5% off
    l = (1e5, 1e5)
    x = 2.0 * np.sqrt(l[0] * l[1])
    exact = ive(order, x) * np.sqrt(l[0] / l[1]) ** order
    res = density_quadrature(TWO_STATE, spec, l)
    assert res.meta["nodes_per_angle"] > 1024
    assert abs(res.value - exact) <= 1e-10 * exact


def test_quadrature_relative_stop_matches_bessel():
    # the density is about 1.65e-22 here, so a stopping test that is
    # absolute below 1 accepts a grid 1.4% off
    l = (20.5148, 129.4852)
    x = 2.0 * np.sqrt(l[0] * l[1])
    exact = ive(0, x) * np.exp(x - sum(l))
    res = density_quadrature(TWO_STATE, SPEC_AB, l)
    assert abs(res.value - exact) <= 1e-9 * exact


def test_quadrature_unreachable_end_is_zero():
    # nothing in the range jumps to 3, so every node's determinant is 0
    gen = validate_generator([[-1, 1, 0, 0], [1, -2, 1, 0], [0, 1, -1, 0], [0, 0, 1, -1]])
    res = density_quadrature(gen, RangeSpec((0, 1, 2, 3), 0, 3), [0.25] * 4)
    assert res.value == 0.0
    assert res.meta["nodes_per_angle"] <= 32


@pytest.mark.parametrize("l, tol", [(1e3, 1e-14), (1e5, 1e-12), (1e6, 1e-11)])
def test_quadrature_estimate_covers_rounding(l, tol):
    # each tol is about the tightest the point converges at, so the last
    # two grids agree to within rounding and the estimate rests on its
    # rounding term: without it the estimate is 1.2e-17, 6.2e-16 and
    # 1.9e-15 against errors of 5.7e-16, 2.7e-15 and 1.2e-14
    res = density_quadrature(TWO_STATE, SPEC_AB, (l, l), tol=tol)
    assert abs(res.value - ive(0, 2.0 * l)) <= res.error_estimate


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
def test_quadrature_rejects_nonpositive_tol(tol):
    # a tol <= 0 or nan has no grid size, and at inf log(2 / tol) gave a nan
    # grid cast to a garbage node count, on which the quadrature hung
    for fn in (density_quadrature, local_time_density):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            fn(TWO_STATE, SPEC_AB, L_UNIT, tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_series_rejects_a_tol_it_cannot_meet(tol):
    # at 0, -1 and nan no degree met the rule, and the series raised a
    # ConvergenceError at degree 80; at inf density_series returned 0.135
    # here, with an error estimate of 0.865, for a density of 0.309
    calls = [lambda: density_series(TWO_STATE, SPEC_AB, L_UNIT, tol=tol),
             lambda: SeriesEvaluator(TWO_STATE, SPEC_AB, tol=tol),
             lambda: theta_integral_series(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0], tol=tol),
             lambda: gauge_invariance_check(TWO_STATE, SPEC_AB, L_UNIT, [1.0, 2.0], tol=tol)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call()


@pytest.mark.parametrize("gen, spec, l", [
    (box_srw(2, 1), SQUARE, [0.5] * 4),
    (box_srw(2, 1), SQUARE, [1.0] * 4),
    (box_srw(1, 2), RangeSpec((-2, -1, 0, 1), -2, 1), [2.0] * 4),
], ids=["square-0.5", "square-1", "interval-t8"])
def test_series_reaches_sparse_supports(gen, spec, l):
    # on the walk's support, with 5, 5 and 4 covers, the series needs 819,
    # 2,470 and 2,300 monomials here (3,925, 12,691 and 10,143 with the
    # recurrence's triples), at degrees 25, 36 and 44
    res = density_series(gen, spec, l)
    ref = density_quadrature(gen, spec, l)
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


def test_router_takes_quadrature_at_t8_without_a_flow_table():
    # the series here needs a table of 2,300 monomials through degree 44,
    # but the quadrature, which needs none, accepts a grid of 20,184 nodes
    tables = {key: tab.max_degree for key, tab in _TABLES.items()}
    spec = RangeSpec((-2, -1, 0, 1), -2, 1)
    res = local_time_density(box_srw(1, 2), spec, [2.0] * 4)
    assert res.method == "quadrature"
    assert {key: tab.max_degree for key, tab in _TABLES.items()} == tables


def test_router_takes_series_past_the_node_limit(monkeypatch):
    # 11 nodes on each of 7 angles and 15 on the confirming grid: 1.9e8
    # nodes, past QUADRATURE_NODE_LIMIT; the route is chosen before any
    # evaluation, so the series is recorded rather than run (it reaches
    # the point: test_router_reaches_the_8_site_point_by_the_series)
    calls = []
    monkeypatch.setattr("loctimes.density.density_series", lambda *args, **kw: calls.append(args))
    gen = random_generator(8, np.random.default_rng(41))
    local_time_density(gen, RangeSpec(tuple(range(8)), 0, 1), [1e-4] * 8)
    assert len(calls) == 1


def run_fresh(code):
    """Run ``code`` in a fresh interpreter with ``resource`` and ``time``
    imported; it sets a dict ``out``, returned with the peak resident
    memory in MB as ``peak_mb``, at the end of the code unless it set
    that itself."""
    tail = "out.setdefault('peak_mb', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
    script = "\n".join(["import json, resource, time", textwrap.dedent(code), tail,
                        "print(json.dumps(out))"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(loctimes.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_router_reaches_the_8_site_point_by_the_series():
    # the series needs degree 10 here, 35,838 monomials (807 k with the
    # triples); summed over balanced flows it passed its limit of 2 M flows
    # at degree 9, after 5.5 s and at 929 MB
    rates = random_generator(8, np.random.default_rng(41)).rates.tolist()
    out = run_fresh(f"""
        import numpy as np
        from loctimes import RangeSpec, SeriesEvaluator, local_time_density, validate_generator
        gen, spec = validate_generator({rates}), RangeSpec(tuple(range(8)), 0, 1)
        start = time.perf_counter()
        res = local_time_density(gen, spec, [1e-4] * 8)
        out = dict(seconds=time.perf_counter() - start, value=res.value, err=res.error_estimate,
                   method=res.method, degree=res.meta["degree"])
        out["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ev = SeriesEvaluator(gen, spec, tol=1e-9)
        out["ref"] = ev._sum(np.full((1, 8), 1e-4), degree=out["degree"] + 2)[0][0]
    """)
    assert out["method"] == "series" and out["degree"] == 10
    assert out["seconds"] < 3 and out["peak_mb"] < 400
    assert abs(out["value"] - out["ref"]) <= out["err"] <= 1e-9 * abs(out["value"])


# in box_srw(2, 1); its quadrature value, at QUADRATURE_NODE_LIMIT raised to
# 2^28 (29 nodes per angle, 14,781,416 nodes, 48 s on 2 vCPUs), from
#   import loctimes.density as d; from loctimes import box_srw
#   d.QUADRATURE_NODE_LIMIT = 2 ** 28
#   print(repr(d.density_quadrature(box_srw(2, 1), GRID_2X3, [1.0] * 6).value))
GRID_2X3 = RangeSpec(((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1)), (-1, -1), (0, 1))
QUADRATURE_2X3 = 3.0871407001480296e-4


def test_series_reaches_the_2x3_grid(monkeypatch):
    # degree 52: 573,678 monomials, 7.8 M with the triples; summed over
    # balanced flows it passed its limit of 2 M flows at degree 34.  The
    # table is built into an empty cache, so it is not kept
    monkeypatch.setattr("loctimes.density._TABLES", {})
    res = density_series(box_srw(2, 1), GRID_2X3, [1.0] * 6)
    assert abs(res.value - QUADRATURE_2X3) <= res.error_estimate <= 1e-10 * res.value


def test_series_on_the_3x3_box_stays_within_memory():
    # at l = 0.1 corner to corner the series needs degree 25, 788,086
    # monomials and 21 M with the triples, past TABLE_LIMIT: the table is
    # refused at degree 22
    out = run_fresh("""
        from loctimes import RangeSpec, box_srw, density_series
        from loctimes.density import CapacityError
        gen = box_srw(2, 1)
        try:
            res = density_series(gen, RangeSpec(gen.states, (-1, -1), (1, 1)), [0.1] * 9)
            out = dict(value=res.value)
        except CapacityError as err:
            out = dict(refused=str(err))
    """)
    assert out["peak_mb"] < 1024


def test_gauge_check_truncates_at_the_density_degree():
    # the conjugation raises the integrand's |B| strength from 1.32 to
    # 5.17; sized by it, the twisted series would stop at degree 35, not
    # at the density's 19, and its rounding would be measured against
    # more truncation than the base series has
    B = np.random.default_rng(0).uniform(0.05, 1.0, (5, 5))
    np.fill_diagonal(B, 0.0)
    np.fill_diagonal(B, -B.sum(axis=1))
    gen = validate_generator(B)
    spec = RangeSpec((0, 1, 2, 3), 0, 3)
    l = [0.25] * 4
    base = density_series(gen, spec, l, tol=1e-12).value
    dev = gauge_invariance_check(gen, spec, l, np.exp([0.0, 1.5, 0.0, -1.5]), tol=1e-12)
    assert dev <= 1e-10 * abs(base)
