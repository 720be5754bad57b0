import numpy as np
import pytest

from loctimes.chain import RangeSpec, validate_generator
from loctimes.density import ConvergenceError, density_series
from loctimes.ldp import (
    SimplexBall,
    chi_discrete,
    density_bound,
    ldp_upper_bound_rhs,
    make_box_functional,
    rate_function_general,
    rate_function_symmetric,
    rescaled_bound_experiment,
    _box_objective,
    _newton_log_tilt,
    _root_objective,
)

THREE_STATE = validate_generator([[-1, 1, 0], [0.5, -1, 0.5], [0, 1, -1]])


def random_symmetric_generator(n, rng):
    B = rng.uniform(0.1, 1.0, size=(n, n))
    B = 0.5 * (B + B.T)
    np.fill_diagonal(B, 0)
    A = B.copy()
    np.fill_diagonal(A, -B.sum(axis=1))
    return validate_generator(A)


def dense_box_laplacian(n, dim):
    """The zero-boundary box Laplacian, dense: the tridiagonal 2, -1 of one
    axis, Kronecker-summed across the axes."""
    L1 = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L = L1
    for _ in range(dim - 1):
        L = np.kron(L, np.eye(n)) + np.kron(np.eye(len(L)), L1)
    return L


def random_generator(n, rng):
    B = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(B, 0)
    A = B.copy()
    np.fill_diagonal(A, -B.sum(axis=1))
    return validate_generator(A)


def tilted_terms(gen, mu, res):
    """mu_x A_xy e^{u_y - u_x} at the result's log tilt u on mu's support,
    formed only where A_xy is nonzero: elsewhere e^{u_y - u_x} may overflow."""
    s = np.flatnonzero(mu)
    M = gen.rates[np.ix_(s, s)]
    u = res.log_tilt
    i, j = np.nonzero(M)
    terms = np.zeros_like(M)
    terms[i, j] = mu[s][i] * M[i, j] * np.exp(u[j] - u[i])
    return terms


def gradient_at_tilt(gen, mu, res):
    """The largest |sum_x E_xz - sum_y E_zy| at the result's tilt, over the
    off-diagonal terms E, relative to |sum_x mu_x A_xx| + sum E."""
    terms = tilted_terms(gen, mu, res)
    E = terms - np.diag(np.diag(terms))
    return np.max(np.abs(E.sum(axis=0) - E.sum(axis=1))) / (abs(np.trace(terms)) + E.sum())


def test_measure_validation():
    gen = random_generator(3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        rate_function_general(gen, [0.5, 0.5, 0.5], gen.states)
    with pytest.raises(ValueError):
        rate_function_general(gen, [-0.1, 0.6, 0.5], gen.states)


@pytest.mark.parametrize("mu", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [0.5, -np.inf, 0.5]])
def test_measure_rejects_non_finite_weights(mu):
    # nan passes both the sign and the sum check, so it is refused on its own
    for rate in (rate_function_general, rate_function_symmetric):
        with pytest.raises(ValueError, match="non-finite"):
            rate(validate_generator([[-1, 1, 0], [1, -2, 1], [0, 1, -1]]), mu)


def test_symmetric_forms_agree():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        gen = random_symmetric_generator(n, rng)
        mu = rng.dirichlet(np.ones(n))
        sym = rate_function_symmetric(gen, mu)
        res = rate_function_general(gen, mu, gen.states)
        assert res.stationarity <= 1e-12
        assert abs(res.value - sym) < 1e-8


def test_symmetric_minimizer_is_sqrt_measure():
    rng = np.random.default_rng(2)
    gen = random_symmetric_generator(3, rng)
    mu = np.array([0.2, 0.5, 0.3])
    res = rate_function_general(gen, mu, gen.states)
    target = 0.5 * np.log(mu / mu[0])
    assert np.allclose(res.log_tilt, target, atol=1e-6)


def test_general_matches_grid_search():
    # independent oracle: refine a grid over the two free log tilts
    rng = np.random.default_rng(3)
    gen = random_generator(3, rng)
    mu = np.array([0.25, 0.45, 0.3])
    M = gen.rates

    def f(u1, u2):
        eu = np.exp([0.0, u1, u2])
        return float(np.sum(mu * (M @ eu) / eu))

    lo = np.array([-3.0, -3.0])
    hi = np.array([3.0, 3.0])
    best = np.inf
    for _ in range(8):
        g1 = np.linspace(lo[0], hi[0], 41)
        g2 = np.linspace(lo[1], hi[1], 41)
        vals = np.array([[f(a, b) for b in g2] for a in g1])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = vals[i, j]
        w1 = g1[1] - g1[0]
        w2 = g2[1] - g2[0]
        lo = np.array([g1[i] - w1, g2[j] - w2])
        hi = np.array([g1[i] + w1, g2[j] + w2])
    oracle = -best
    res = rate_function_general(gen, mu, gen.states)
    assert abs(res.value - oracle) < 1e-12


def test_rate_function_is_stationary_at_its_tilt():
    # the gradient in u_z is sum_x E_xz - sum_y E_zy over the off-diagonal terms
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        gen = random_generator(n, rng)
        mu = rng.dirichlet(np.ones(n))
        res = rate_function_general(gen, mu, gen.states)
        assert res.value == pytest.approx(-tilted_terms(gen, mu, res).sum(), rel=1e-14)
        assert 0 <= res.stationarity <= 1e-12
        assert gradient_at_tilt(gen, mu, res) <= 1e-12


def test_rate_function_on_a_disconnected_support():
    # two two-state blocks: per block the rate is
    # -sum_x mu_x A_xx - 2 sqrt(mu_x mu_y A_xy A_yx)
    A = np.array([[-1.3, 1.3, 0, 0], [0.4, -0.4, 0, 0], [0, 0, -2, 2], [0, 0, 0.7, -0.7]])
    mu = np.array([0.1, 0.4, 0.3, 0.2])
    closed = sum(-mu[x] * A[x, x] - mu[y] * A[y, y] - 2 * np.sqrt(mu[x] * mu[y] * A[x, y] * A[y, x])
                 for x, y in ((0, 1), (2, 3)))
    assert closed == pytest.approx(0.16190082811530, abs=1e-14)
    res = rate_function_general(validate_generator(A), mu)
    assert res.value == pytest.approx(closed, rel=1e-14)
    assert res.stationarity <= 1e-12


def test_rate_function_infimum_not_attained():
    # one-way 4-cycle, mu uniform on {0, 1, 2}: the objective is
    # -1 + (e^{u_1} + e^{u_2 - u_1}) / 3, whose infimum -1 needs u -> -inf
    A = np.roll(np.eye(4), 1, axis=1) - np.eye(4)
    res = rate_function_general(validate_generator(A), [1 / 3, 1 / 3, 1 / 3, 0.0])
    assert abs(res.value - 1.0) <= 1e-12
    assert res.stationarity <= 1e-12
    assert res.sites == (0, 1, 2)
    assert res.log_tilt[0] == 0.0 and np.all(np.isfinite(res.log_tilt))


def one_way_path(n):
    """0 -> 1 -> ... -> n-1 at rate 1, and mu uniform off the last site: the rate is 1."""
    A = np.eye(n, k=1) - np.diag(np.r_[np.ones(n - 1), 0.0])
    return validate_generator(A), np.r_[np.full(n - 1, 1 / (n - 1)), 0.0]


def test_rate_function_on_a_long_one_way_path():
    # rounding level needs tilts far below the smallest double (log tilts
    # near -1000 at 30 sites, -7000 at 200), which the log tilt holds
    for n in (30, 60, 200):
        gen, mu = one_way_path(n)
        res = rate_function_general(gen, mu)
        assert abs(res.value - 1.0) <= 1e-12
        assert res.stationarity <= 1e-12
        assert res.log_tilt[0] == 0.0 and np.all(np.isfinite(res.log_tilt))
        # the certificate is the gradient at the returned tilt, over the stop's scale
        assert gradient_at_tilt(gen, mu, res) <= 1e-12


def newton_terms(gen, mu):
    """The objective on mu's support as ``_newton_log_tilt`` takes it: the
    coefficients a and exponent rows B (the anchor's column dropped) of the
    jump terms, and |sum_x mu_x A_xx|."""
    s = np.flatnonzero(mu)
    M = gen.rates[np.ix_(s, s)]
    i, j = np.nonzero(M - np.diag(np.diag(M)))
    B = np.zeros((len(i), len(s)))
    B[np.arange(len(i)), j] = 1.0
    B[np.arange(len(i)), i] = -1.0
    return mu[s][i] * M[i, j], B[:, 1:], abs(float(mu[s] @ np.diag(M)))


def test_newton_optimum_is_independent_of_the_start():
    # the objective is convex, so every start ends at the one optimal value;
    # on this chain no jump enters site 4, its tilt runs to +inf, and the
    # rates span 7.7e-6 to 328
    B = np.array([[0, 0, 0, 0.43, 0, 0.045], [2.2, 0, 0, 34, 0, 0], [6.3e-5, 3.1e-3, 0, 0, 0, 0],
                  [7.7e-6, 0, 4.2e-5, 0, 0, 26], [15, 306, 0, 0.055, 0, 0.23],
                  [0, 328, 0, 71, 0, 0]])
    runs_off = validate_generator(B - np.diag(B.sum(axis=1)))
    rng = np.random.default_rng(29)
    chains = [(runs_off, np.array([0.27, 0.13, 0.07, 0.0, 0.46, 0.07]))]
    for _ in range(20):
        n = int(rng.integers(2, 6))
        chains.append((random_generator(n, rng), rng.dirichlet(np.ones(n))))
    for gen, mu in chains:
        a, B, scale = newton_terms(gen, mu)
        sums = [float(_newton_log_tilt(a, B, u0, scale)[0].sum())
                for u0 in [np.zeros(B.shape[1])] + [rng.normal(scale=2.0, size=B.shape[1])
                                                    for _ in range(4)]]
        assert max(sums) - min(sums) <= 1e-13 * (scale + max(sums))
        res = rate_function_general(gen, mu)
        assert res.value == pytest.approx(float(mu @ -np.diag(gen.rates)) - sums[0], rel=1e-14)
        assert res.stationarity <= 1e-12


def test_rate_function_raises_past_its_step_cap(monkeypatch):
    # the not-attained infimum above needs dozens of steps per start
    monkeypatch.setattr("loctimes.ldp._NEWTON_STEPS", 3)
    A = np.roll(np.eye(4), 1, axis=1) - np.eye(4)
    with pytest.raises(ConvergenceError, match="Newton"):
        rate_function_general(validate_generator(A), [1 / 3, 1 / 3, 1 / 3, 0.0])


def test_rate_function_needs_no_scipy_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr("loctimes.ldp.minimize", refuse)
    gen = random_generator(4, np.random.default_rng(12))
    assert rate_function_general(gen, [0.1, 0.2, 0.3, 0.4]).stationarity <= 1e-12


def test_invariant_measure_has_zero_rate():
    # left null vector of the generator
    w, v = np.linalg.eig(THREE_STATE.rates.T)
    mu = np.real(v[:, np.argmin(np.abs(w))])
    mu = mu / mu.sum()
    res = rate_function_general(THREE_STATE, mu, THREE_STATE.states)
    assert abs(res.value) < 1e-10


def test_rate_function_singleton_support():
    gen = random_generator(3, np.random.default_rng(5))
    res = rate_function_general(gen, [0.0, 1.0, 0.0], gen.states)
    assert res.value == pytest.approx(-gen.rates[1, 1])
    assert res.sites == (1,) and res.log_tilt.tolist() == [0.0]


def test_density_bound_dominates_symmetric():
    rng = np.random.default_rng(7)
    gen = random_symmetric_generator(3, rng)
    spec = RangeSpec((0, 1, 2), 0, 1)
    for _ in range(25):
        l = 2.0 * rng.dirichlet(np.ones(3))
        res = density_series(gen, spec, dict(zip(range(3), l)))
        bound = density_bound(gen, spec, l)
        assert res.value <= bound + res.error_estimate


def test_density_bound_dominates_general():
    rng = np.random.default_rng(8)
    gen = random_generator(3, rng)
    spec = RangeSpec((0, 1, 2), 1, 2)
    for _ in range(25):
        l = 1.5 * rng.dirichlet(np.ones(3))
        res = density_series(gen, spec, dict(zip(range(3), l)))
        bound = density_bound(gen, spec, l)
        assert res.value <= bound + res.error_estimate


def killed_one_way_path(n):
    """0 -> 1 -> ... -> n at rate 1, on the range of the first n sites from
    0 to n - 1: the last site of the range is left at rate 1."""
    A = np.eye(n + 1, k=1) - np.diag(np.r_[np.ones(n), 0.0])
    return validate_generator(A), RangeSpec(tuple(range(n)), 0, n - 1)


def test_density_bound_where_the_tilt_runs_off():
    # l uniform with sum 2: the rate of l / T is 1, approached as each log
    # tilt step u_{x+1} - u_x runs to -inf, so the ratio r_{x+1} / r_x
    # overflows where it meets the zero rate B_{x+1,x}; only the jumps
    # x -> x + 1 enter the conjugated sum
    gen, spec = killed_one_way_path(4)
    l = np.full(4, 0.5)
    res = density_series(gen, spec, l)
    assert res.value <= density_bound(gen, spec, l)
    gen, spec = killed_one_way_path(40)
    l = np.full(40, 0.05)
    assert np.isfinite(density_bound(gen, spec, l))
    rate = rate_function_general(gen, l / 2.0, spec.range)
    assert abs(rate.value - 1.0) <= 1e-12


@pytest.mark.parametrize("l, message", [
    ([np.nan, 1.0, 1.0], "positive and finite"),
    ([np.inf, 1.0, 1.0], "positive and finite"),
    ([1.0, 1.0], "expected 3 local times"),
    ({0: 1.0, 1: 1.0, 2: 1.0, 5: 1.0}, "support does not match the range"),
])
def test_density_bound_rejects_bad_local_times(l, message):
    # a site outside the range is an error, not dropped
    spec = RangeSpec((0, 1, 2), 0, 1)
    with pytest.raises(ValueError, match=message):
        density_bound(THREE_STATE, spec, l)


def test_upper_bound_rhs_arithmetic():
    # two sites, unit rates, T = 1: inner inf 0 at the uniform measure, so
    # the total is 2 log(sqrt(8e)) + log 2 + 1/2 = 4 log 2 + 3/2
    gen = validate_generator([[-1, 1], [1, -1]])
    res = ldp_upper_bound_rhs(gen, (0, 1), 1.0)
    expected = 4.0 * np.log(2.0) + 1.5
    assert abs(res.inner_value) < 1e-9
    assert abs(res.total - expected) < 1e-6
    assert res.eta == 1.0


def test_upper_bound_rejects_short_horizon_and_asymmetry():
    gen = validate_generator([[-1, 1], [1, -1]])
    for T in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite T >= 1"):
            ldp_upper_bound_rhs(gen, (0, 1), T)
    with pytest.raises(ValueError):
        ldp_upper_bound_rhs(random_generator(3, np.random.default_rng(0)), (0, 1, 2), 1.0)


def test_upper_bound_with_constraint():
    gen = random_symmetric_generator(3, np.random.default_rng(11))
    ball = SimplexBall(np.array([0.8, 0.1, 0.1]), 0.1)
    free = ldp_upper_bound_rhs(gen, gen.states, 2.0)
    tied = ldp_upper_bound_rhs(gen, gen.states, 2.0, constraint=ball)
    assert tied.inner_value >= free.inner_value - 1e-12
    assert ball.contains(tied.minimizer, tol=1e-6)


def test_simplex_ball_projection():
    for radius in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            SimplexBall(np.array([0.5, 0.5]), radius)
    for center in ([np.nan, 0.5], [np.inf, 0.0], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="center must be a vector of finite numbers"):
            SimplexBall(np.array(center), 0.1)


def test_upper_bound_rejects_a_center_of_the_wrong_length():
    # before, numpy's broadcast error from inside the solver
    gen = validate_generator([[-1, 1], [1, -1]])
    for center in ([1.0], [0.3, 0.3, 0.4]):
        with pytest.raises(ValueError, match=f"center has {len(center)} entries for 2 sites"):
            ldp_upper_bound_rhs(gen, (0, 1), 2.0, constraint=SimplexBall(np.array(center), 0.1))


def test_upper_bound_with_a_ball_past_the_simplex():
    # a ball of radius 1e300 holds the whole simplex; r^2 overflowed before
    gen = validate_generator([[-1, 1], [1, -1]])
    free = ldp_upper_bound_rhs(gen, (0, 1), 2.0)
    tied = ldp_upper_bound_rhs(gen, (0, 1), 2.0, constraint=SimplexBall(np.array([0.5, 0.5]), 1e300))
    assert tied.restarts_agree
    assert abs(tied.inner_value - free.inner_value) <= 1e-9


def test_upper_bound_raises_when_ball_misses_simplex():
    # the ball around (0.9, 0.9) of radius 0.1 has no point with sum 1
    gen = validate_generator([[-1, 1], [1, -1]])
    with pytest.raises(ValueError, match="inside the constraint set"):
        ldp_upper_bound_rhs(gen, (0, 1), 2.0, constraint=SimplexBall(np.array([0.9, 0.9]), 0.1))


@pytest.mark.parametrize("name", ["zero", "entropy", "power:0.3", "linear", "no-gradient"])
def test_root_objective_gradient(name, tmp_path):
    # analytic gradient over v against central differences of the value
    n = 7
    rng = np.random.default_rng(17)
    if name == "linear":
        path = tmp_path / "v.txt"
        np.savetxt(path, rng.uniform(-1.0, 1.0, size=n))
        name = f"linear:{path}"
    L = -random_symmetric_generator(n, rng).rates
    if name == "no-gradient":
        # the objective's gradient needs the functional's own gradient
        with pytest.raises(ValueError, match="gradient"):
            _root_objective(L.__matmul__, lambda mu: float(np.sum(np.sin(3.0 * mu)) + mu @ mu))
        return
    objective = _root_objective(L.__matmul__, make_box_functional(name, 1, 1.0, n))
    h = 1e-6
    for _ in range(3):
        v = rng.uniform(0.2, 1.5, size=n)
        _, grad = objective(v)
        central = np.array([(objective(v + h * e)[0] - objective(v - h * e)[0]) / (2 * h)
                            for e in np.eye(n)])
        assert np.max(np.abs(grad - central)) <= 1e-7 * max(1.0, np.max(np.abs(central)))


def test_upper_bound_rhs_linear_functional_is_eigenvalue():
    # with F(mu) = V . mu the inner value is a Rayleigh quotient: the smallest
    # eigenvalue of -A - diag(V)
    rng = np.random.default_rng(19)
    for n in (3, 5, 8):
        gen = random_symmetric_generator(n, rng)
        V = rng.uniform(-1.0, 2.0, size=n)
        F = lambda mu: float(V @ mu)
        F.gradient = lambda mu: V
        res = ldp_upper_bound_rhs(gen, gen.states, 3.0, functional=F, n_restarts=4)
        lam = np.linalg.eigvalsh(-gen.rates - np.diag(V))[0]
        assert abs(res.inner_value - lam) <= 1e-10
        assert res.restarts_agree and res.spread <= 1e-10


def _grid_minimum(A, ball, points=201, rounds=8):
    """Minimum of the Dirichlet form of sqrt(mu) over mu = c + y >= 0 with
    sum(y) = 0 and |y| <= r: a grid over polar coordinates (rho, theta) of
    y, refined around its best point."""
    n = len(A)
    basis = np.linalg.svd(np.ones((1, n)))[2][1:]  # orthonormal, sum zero
    lo, hi = np.array([0.0, 0.0]), np.array([ball.radius, 2.0 * np.pi])
    best = np.inf
    for _ in range(rounds):
        rho, theta = (g.ravel() for g in np.meshgrid(np.linspace(lo[0], hi[0], points),
                                                      np.linspace(lo[1], hi[1], points),
                                                      indexing="ij"))
        y = (rho[:, None] * np.column_stack([np.cos(theta), np.sin(theta)]))[:, :n - 1]
        mu = ball.center + y @ basis
        keep = (mu >= 0).all(axis=1)
        root = np.sqrt(mu[keep])
        values = np.einsum("ix,xy,iy->i", root, -A, root)
        k = int(np.argmin(values))
        best = min(best, values[k])
        cell = (hi - lo) / (points - 1)
        centre = np.array([rho[keep][k], theta[keep][k]])
        lo, hi = centre - 2 * cell, centre + 2 * cell
        lo[0], hi[0] = max(lo[0], 0.0), min(hi[0], ball.radius)
    return float(best)


def test_upper_bound_inner_value_matches_grid():
    rng = np.random.default_rng(23)
    for n, center, radius in [(2, [0.8, 0.2], 0.1), (2, [0.3, 0.7], 0.05),
                              (3, [0.7, 0.2, 0.1], 0.15), (3, [0.2, 0.3, 0.5], 0.3),
                              (3, [0.05, 0.05, 0.9], 0.1)]:
        gen = random_symmetric_generator(n, rng)
        ball = SimplexBall(np.array(center), radius)
        res = ldp_upper_bound_rhs(gen, gen.states, 2.0, constraint=ball, n_restarts=4)
        assert ball.contains(res.minimizer)
        assert abs(res.inner_value - _grid_minimum(gen.rates, ball)) <= 1e-9


def test_chi_one_dim_dirichlet_eigenvalue():
    # zero functional: converges to the principal eigenvalue pi^2/8 of
    # -(1/2) d^2/dx^2 on [-1, 1] with zero boundary
    res = chi_discrete(1, 1.0, 60, "zero", n_restarts=3)
    assert abs(res.value - np.pi ** 2 / 8.0) < 1e-3 * np.pi ** 2 / 8.0
    assert res.restarts_agree
    assert abs(res.minimizer.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("dim, radius", [(1, 0.0), (1, -1.0), (1, np.nan), (1, np.inf),
                                         (0, 1.0), (-1, 1.0), (1.5, 1.0)])
def test_chi_rejects_bad_geometry(dim, radius):
    with pytest.raises(ValueError, match="dim must be|radius must be"):
        chi_discrete(dim, radius, 10, "zero", n_restarts=1)



def test_chi_matches_dense_eigenvalue():
    # with a linear functional the problem is a Rayleigh quotient:
    # chi = smallest eigenvalue of (alpha^2 / 2) L - diag(V)
    n = 25
    radius = 1.0
    spacing = 2.0 * radius / (n + 1)
    rng = np.random.default_rng(13)
    V = rng.uniform(0.0, 1.0, size=n)
    F = lambda mu: float(V @ mu)
    F.gradient = lambda mu: V
    res = chi_discrete(1, radius, n, F, n_restarts=4)
    H = 0.5 / spacing ** 2 * dense_box_laplacian(n, 1) - np.diag(V)
    lam = np.linalg.eigvalsh(H)[0]
    assert abs(res.value - lam) < 1e-7


@pytest.mark.parametrize("n, dim", [(7, 1), (4, 2), (3, 3)])
def test_box_objective_change_of_variables(n, dim):
    # v = roots(x) takes the energy to x.x, from_roots inverts it, the value
    # is the plain objective's at v, and the gradient over x matches central
    # differences
    alpha_sq = 3.0
    F = make_box_functional("entropy", dim, 1.0, n)
    objective, roots, from_roots = _box_objective(n, dim, alpha_sq, F)
    L = 0.5 * alpha_sq * dense_box_laplacian(n, dim)
    plain = _root_objective(L.__matmul__, F)
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = rng.normal(size=n ** dim)
        v = roots(x)
        assert abs(v @ L @ v - x @ x) < 1e-12 * (x @ x)
        assert np.allclose(from_roots(v), x, atol=1e-12)
        value, grad = objective(x)
        assert abs(value - plain(v)[0]) < 1e-12 * max(1.0, abs(value))
        h = 1e-6
        numeric = [(objective(x + h * e)[0] - objective(x - h * e)[0]) / (2 * h)
                   for e in np.eye(n ** dim)]
        assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-7)


def test_chi_two_dim_matches_dense_eigenvalue():
    # the two-dimensional lattice, with a potential that is not symmetric
    # under swapping the axes
    n, radius = 6, 1.0
    spacing = 2.0 * radius / (n + 1)
    V = np.random.default_rng(17).uniform(0.0, 2.0, size=n * n)
    F = lambda mu: float(V @ mu)
    F.gradient = lambda mu: V
    res = chi_discrete(2, radius, n, F, n_restarts=3)
    H = 0.5 / spacing ** 2 * dense_box_laplacian(n, 2) - np.diag(V)
    w, vecs = np.linalg.eigh(H)
    assert abs(res.value - w[0]) < 1e-9 * abs(w[0])
    assert np.allclose(res.minimizer, vecs[:, 0] ** 2, atol=1e-7)


def test_entropy_functional_lowers_value_with_radius():
    a = chi_discrete(1, 1.0, 41, "entropy", n_restarts=2)
    b = chi_discrete(1, 2.0, 41, "entropy", n_restarts=2)
    assert b.value < a.value


def test_power_functional_catalog():
    F = make_box_functional("power:0.5", 1, 1.0, 9)
    mu = np.full(9, 1.0 / 9.0)
    assert F(mu) < 0
    g = F.gradient(mu)
    num = (F(mu + 1e-7 * np.eye(9)[3]) - F(mu)) / 1e-7
    assert abs(g[3] - num) < 1e-5
    with pytest.raises(ValueError):
        make_box_functional("power:1.5", 1, 1.0, 9)
    with pytest.raises(ValueError):
        make_box_functional("nope", 1, 1.0, 9)


def test_linear_functional_from_file(tmp_path):
    path = tmp_path / "v.txt"
    np.savetxt(path, np.arange(5, dtype=float))
    F = make_box_functional(f"linear:{path}", 1, 1.0, 5)
    mu = np.full(5, 0.2)
    assert F(mu) == pytest.approx(2.0)


def test_rescaled_experiment_rows():
    rows = rescaled_bound_experiment(1, 1.0, [100.0, 1000.0], n_restarts=2)
    assert [r["T"] for r in rows] == [100.0, 1000.0]
    assert rows[1]["n_sites"] > rows[0]["n_sites"]
    assert rows[1]["scaled_error_terms"] < rows[0]["scaled_error_terms"]
    for r in rows:
        assert r["scaled_rhs"] == pytest.approx(-r["scaled_inner_inf"] + r["scaled_error_terms"])


def test_rescaled_experiment_box_sizes():
    # 1e6 ** (1/3) evaluates to 99.99999999999997; the box keeps its outer
    # layer: 2 * 100 + 1 sites
    rows = rescaled_bound_experiment(1, 1.0, [1e6], alpha_exponent=1 / 3, n_restarts=1)
    assert rows[0]["n_sites"] == 201
    rows = rescaled_bound_experiment(1, 1.0, [1e2, 1e4, 1e6, 1e8], n_restarts=1)
    assert [r["n_sites"] for r in rows] == [7, 21, 63, 201]
    # radius * alpha = 0.5: the box would be the single site 0
    with pytest.raises(ValueError):
        rescaled_bound_experiment(1, 0.5, [1.0])


def test_chi_rejects_fewer_than_2_nodes_per_axis():
    with pytest.raises(ValueError, match="at least 2 nodes per axis"):
        chi_discrete(1, 1.0, 1)


def test_linear_functional_rejects_a_file_of_the_wrong_size(tmp_path):
    path = tmp_path / "v.txt"
    np.savetxt(path, np.arange(4, dtype=float))
    with pytest.raises(ValueError, match="does not match the lattice size"):
        make_box_functional(f"linear:{path}", 1, 1.0, 5)


def test_symmetric_rate_function_rejects_a_non_symmetric_generator():
    with pytest.raises(ValueError, match="not symmetric"):
        rate_function_symmetric(THREE_STATE, [0.2, 0.3, 0.5])


def test_measure_as_a_dict_and_of_the_wrong_length():
    # a dict measure's sites are its keys; the states it leaves out weigh 0
    gen = random_generator(3, np.random.default_rng(8))
    by_dict = rate_function_general(gen, {0: 0.4, 2: 0.6})
    assert by_dict.sites == (0, 2)
    assert by_dict.value == rate_function_general(gen, [0.4, 0.0, 0.6]).value
    with pytest.raises(ValueError, match="measure length does not match site count"):
        rate_function_general(gen, [0.5, 0.5])
