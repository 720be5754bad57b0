import functools
from math import factorial

import mpmath
import numpy as np
import pytest

from loctimes.chain import RangeSpec, validate_generator
from loctimes.density import (
    FLOW_LIMIT,
    CapacityError,
    ConvergenceError,
    SeriesEvaluator,
    density_finite_difference,
    density_quadrature,
    density_series,
    gauge_invariance_check,
    local_time_density,
    theta_integral_series,
    _derivative_expansion,
    _factorial_tail,
    _flow_table,
    _FlowTable,
    _LOG_FACT,
    _series_degree,
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


def _enumerate_matrices(size: int, max_degree: int) -> list:
    """All balanced nonnegative integer matrices (zero diagonal) with total
    degree at most ``max_degree``, via row-wise depth-first search: the
    reference for the cycle-layer build of ``_FlowTable``.

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


@functools.lru_cache(maxsize=None)
def reference_table(size, K):
    """The table's arrays from the reference enumeration, ordered by a
    lexsort and grouped into monomials by ``np.unique``."""
    counts = flow_counts(size, K).reshape(-1, size * size)
    order = np.lexsort(tuple(counts[:, k] for k in range(size * size - 1, -1, -1)))
    order = order[np.argsort(counts[order].sum(axis=1), kind="stable")]
    counts = counts[order]
    sq = counts.reshape(-1, size, size)
    site_degree = sq.sum(axis=1) + sq.sum(axis=2)
    rows, index = np.unique(site_degree, axis=0, return_inverse=True)
    by_degree = np.argsort(rows.sum(axis=1), kind="stable")
    rank = np.empty_like(by_degree)
    rank[by_degree] = np.arange(len(by_degree))
    return {
        "counts": counts,
        "inv_factorial": np.exp(-np.sum(_LOG_FACT[counts], axis=1)),
        "powers": (rows[by_degree] // 2).astype(float),
        "monomial": rank[index.ravel()],
        "monomial_degree": rows[by_degree].sum(axis=1) // 2,
    }


def assert_table_matches_reference(tab, size, K):
    n_flows, n_monomials = tab.sizes(K)
    ref = reference_table(size, K)
    assert len(ref["counts"]) == n_flows and len(ref["powers"]) == n_monomials
    for name, expected in ref.items():
        got = getattr(tab, name)[: n_monomials if name in ("powers", "monomial_degree")
                                 else n_flows]
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


@pytest.mark.parametrize("size, K", [(2, 16), (3, 20), (4, 14), (4, 18), (7, 4)])
def test_flow_table_matches_reference(size, K):
    # at (7, 4), 42 off-diagonal counts of 2 bits take two key words
    tab = _FlowTable(size)
    tab.extend(K)
    assert tab.max_degree == K
    assert_table_matches_reference(tab, size, K)


def test_flow_table_extends_in_place():
    tab = _FlowTable(4)
    tab.extend(12)
    assert_table_matches_reference(tab, 4, 12)
    tab.extend(18)
    assert tab.max_degree == 18
    assert_table_matches_reference(tab, 4, 18)
    assert _flow_table(4, 5) is _flow_table(4, 9)


def test_enumerate_flows_size2():
    assert _flow_table(2, 0).sizes(0)[0] == 1
    assert _flow_table(2, 4).sizes(4)[0] == 3  # n12 = n21 = k for k in 0..2


def test_enumerate_flows_size3_degree2():
    assert _flow_table(3, 2).sizes(2)[0] == 4  # zero flow plus the three 2-cycles


def test_enumerate_flows_capacity_guard():
    with pytest.raises(CapacityError):
        _flow_table(4, 40, limit=100)
    # the layer that passed the limit is dropped; those below it stay whole
    tab = _FlowTable(4)
    with pytest.raises(CapacityError, match="more than 100 balanced flows"):
        tab.extend(40, limit=100)
    assert len(tab.counts) <= 100 < len(flow_counts(4, tab.max_degree + 1))
    assert_table_matches_reference(tab, 4, tab.max_degree)
    tab.extend(tab.max_degree + 1, limit=FLOW_LIMIT)
    assert_table_matches_reference(tab, 4, tab.max_degree)
    # the simple cycles of at most 12 of 12 sites already pass the limit
    with pytest.raises(CapacityError):
        _FlowTable(12).extend(12)


def test_flow_balance_invariant():
    tab = _flow_table(3, 4)
    counts = tab.counts[: tab.sizes(4)[0]].reshape(-1, 3, 3)
    assert np.all(counts.sum(axis=1) == counts.sum(axis=2))
    assert np.all(counts[:, np.arange(3), np.arange(3)] == 0)


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
    # cap: the closed form e^{-(l0+l1)} I_0(2 sqrt(l0 l1)) is 0.0516115 at
    # (30, 30), 0.0326 at (75, 75) and 1.65e-22 at (20.5148, 129.4852),
    # against truncated sums of 0.0514074, 1.5e-11 and 2.34e-24; the last
    # passed an absolute error floor of 1e-13
    ev = SeriesEvaluator(TWO_STATE, SPEC_AB)
    for l in ([30.0, 30.0], [75.0, 75.0], [20.5148, 129.4852]):
        with pytest.raises(ConvergenceError, match="flow series not converged at degree 80"):
            ev.values(np.array([[1.0, 1.0], l]))
        with pytest.raises(ConvergenceError, match="flow series not converged at degree 80"):
            density_series(TWO_STATE, SPEC_AB, l)
    assert abs(ev.values(np.array([[1.0, 1.0]]))[0][0] - RHO_12) < 1e-10


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
            sql = np.sqrt(l)
            K = _series_degree(float(np.sum(np.abs(M) * np.outer(sql, sql))), 1e-9, 80)
            (expected,) = flow_sums(M, l, K, [()])
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
    vals, _ = ev.values(L)
    B = gen.off_diagonal()
    K = _series_degree(max(np.sum(B * np.sqrt(np.outer(l, l))) for l in L), 1e-12, 80)
    for l, v in zip(L, vals):
        expected = explicit_density(gen, spec, l, K)
        assert abs(v - expected) <= 1e-12 * abs(expected)


def test_monomial_counts_and_meta():
    tab = _flow_table(4, 16)
    assert tab.sizes(14) == (17782, 1380)
    assert tab.sizes(16) == (41293, 2205)
    gen = random_generator(4, np.random.default_rng(37))
    res = density_series(gen, RangeSpec((0, 1, 2, 3), 0, 2), [0.3, 0.2, 0.4, 0.1])
    K = res.meta["degree"]
    assert (res.meta["flows"], res.meta["monomials"]) == tab.sizes(K)
    assert res.meta["monomials"] < res.meta["flows"]


@pytest.mark.parametrize("spec, l, max_degree", [
    (SPEC_AB, (1.0, 1.5), 6),
    (SPEC_AA, (2.0, 0.5), 6),
    (SPEC_AB, (20.5148, 129.4852), 80),
])
def test_tail_bound_covers_truncation_error(spec, l, max_degree):
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
    ev = SeriesEvaluator(TWO_STATE, spec, tol=1e9, max_degree=max_degree)
    value, err = ev.value(np.array(l))
    vals, errs = ev.values(np.array([l]))
    for v, e in ((value, err), (vals[0], errs[0])):
        truncation = abs(mpmath.mpf(v) - exact)
        assert truncation > 1e-6 * exact  # the truncation is visible
        assert truncation <= e



@pytest.mark.parametrize("s, K, q", [(0.54, 14, 0), (103.0, 80, 0), (3.0, 10, 2)])
def test_factorial_tail_sum_matches_mpmath(s, K, q):
    mpmath.mp.dps = 40
    exact = mpmath.nsum(lambda k: k ** q * mpmath.mpf(s) ** k / mpmath.factorial(k),
                        [K + 1, mpmath.inf])
    got = _factorial_tail(np.array([s]), K, q)[0]
    assert abs(got / float(exact) - 1) <= 1e-13


def test_quadrature_node_limit_raises_before_allocating():
    gen = random_generator(4, np.random.default_rng(41))
    spec = RangeSpec((0, 1, 2, 3), 0, 1)
    with pytest.raises(ConvergenceError, match="quadrature not converged"):
        density_quadrature(gen, spec, [0.25] * 4, grid_points_per_angle=512)
