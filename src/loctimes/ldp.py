"""Rate functions, pointwise density bounds, finite-horizon large-deviation
upper bounds, and the discrete variational problems for rescaled profiles.

The rate function of an occupation measure mu is the negative infimum over
positive tilt functions g of sum_x mu_x (A g)_x / g_x; for symmetric A it
collapses to the Dirichlet form of sqrt(mu).  The bounds below combine the
rate function with combinatorial prefactors controlled by the jump-rate
bound of the range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np
from scipy.optimize import minimize

from .chain import Generator, RangeSpec, as_times, jump_rate_bound
from .density import ConvergenceError

__all__ = [
    "RateFunctionResult",
    "rate_function_symmetric",
    "rate_function_general",
    "density_bound",
    "SimplexBall",
    "DeviationBoundRhs",
    "ldp_upper_bound_rhs",
    "chi_discrete",
    "ChiResult",
    "rescaled_bound_experiment",
]

SYMMETRY_ATOL = 1e-12
# L-BFGS-B gradient tolerance of the deviation-bound and chi solves
GTOL = 1e-10
_NEWTON_STEPS = 100  # cap on the Newton steps of the rate-function solve
_NEWTON_RTOL = 1e-15  # its stopping decrement, relative to the objective's terms


@dataclass
class RateFunctionResult:
    value: float
    sites: tuple  # the support of mu
    # the log of the minimizing tilt on ``sites``, 0 at the anchor (the first)
    log_tilt: np.ndarray
    # the largest |gradient| in the log tilt at the tilt, over the Newton stop's
    # scale |sum_x mu_x A_xx| + sum E; 0 when every term is 0
    stationarity: float


def _measure_on(gen: Generator, mu, sites=None):
    """Coerce mu (dict or array) onto the given site order; returns
    (sites, weights) with weights validated as a probability vector."""
    if sites is None:
        sites = gen.states if not isinstance(mu, dict) else tuple(mu)
    sites = tuple(sites)
    if isinstance(mu, dict):
        w = np.array([mu.get(s, 0.0) for s in sites], dtype=float)
    else:
        w = np.asarray(mu, dtype=float)
        if len(w) != len(sites):
            raise ValueError("measure length does not match site count")
    if not np.all(np.isfinite(w)):
        raise ValueError("measure has non-finite weights")
    if np.any(w < 0):
        raise ValueError("measure has negative weights")
    if abs(w.sum() - 1.0) > 1e-12 * max(1.0, abs(w.sum())):
        raise ValueError(f"measure sums to {w.sum():.15g}, not 1")
    return sites, w


def _is_symmetric(A: np.ndarray) -> bool:
    return bool(np.allclose(A, A.T, atol=SYMMETRY_ATOL, rtol=0))


def rate_function_symmetric(gen: Generator, mu, sites=None) -> float:
    """Dirichlet-form value <sqrt(mu), (-A) sqrt(mu)> for symmetric A."""
    sites, w = _measure_on(gen, mu, sites)
    A = gen.submatrix(sites)
    if not _is_symmetric(A):
        raise ValueError("generator is not symmetric; use rate_function_general")
    root = np.sqrt(w)
    return float(root @ (-A) @ root)


def _newton_log_tilt(a, B, u, scale):
    """Damped Newton descent of sum_k a_k e^{(B u)_k} from u, with the exact
    Hessian B^T diag(a e^{Bu}) B, its minimum-norm step and Armijo
    backtracking.  Stops after the step whose Newton decrement is at
    rounding level, ``_NEWTON_RTOL`` times ``scale`` plus the sum, which
    leaves the gradient at rounding level too.  Returns the final terms and
    u.  ``ConvergenceError`` past ``_NEWTON_STEPS`` steps."""
    x = B @ u
    E = a * np.exp(x)
    # an overlong trial step reads as an infinite or nan decrease and is halved
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            g = E @ B
            step = np.linalg.lstsq((B.T * E) @ B, -g, rcond=None)[0]
            decrement = -float(g @ step)
            done = decrement <= _NEWTON_RTOL * (scale + E.sum())
            dx, t = B @ step, 1.0
            # the decrease sum_k E_k (1 - e^{t dx_k}), summed without cancellation
            while not -float(E @ np.expm1(t * dx)) >= 0.25 * t * decrement:
                t *= 0.5
                if t < 1e-12:
                    if done:
                        return E, u
                    raise ConvergenceError("rate function: the Newton line search stalled")
            x, u = x + t * dx, u + t * step
            E = a * np.exp(x)
            if done:
                return E, u
    raise ConvergenceError(f"rate function: Newton did not converge in {_NEWTON_STEPS} steps")


def rate_function_general(gen: Generator, mu, sites=None) -> RateFunctionResult:
    """Rate function by minimizing sum_x mu_x (A e^u)_x e^{-u_x} over log
    tilts u with the anchor entry pinned at 0.

    Sites with zero weight are dropped: their tilt entries enter the
    objective linearly with nonnegative coefficients, so the infimum sends
    them to zero and the problem restricts exactly to the support.  On the
    support the objective is sum_x mu_x A_xx plus the terms
    E_xy = mu_x A_xy e^{u_y - u_x} over the jumps x -> y, a sum of
    exponentials of linear forms in u and so convex, with a single optimal
    value.  Its gradient is sum_x E_xz - sum_y E_zy and its Hessian the
    graph Laplacian of the weights E_xy + E_yx, singular along a constant
    shift of u on each component of that graph but the anchor's; the
    minimum-norm Newton step leaves those shifts alone, and they do not
    change the objective.  One damped Newton descent (``_newton_log_tilt``)
    runs from u = 0.  An infimum that is not attained is approached until
    the Newton decrement is at rounding level; the tilt stays in logs
    throughout, so a log tilt may grow without bound.
    """
    sites, w = _measure_on(gen, mu, sites)
    support = [s for s, wx in zip(sites, w) if wx > 0]
    w_s = np.array([wx for wx in w if wx > 0])
    M = gen.submatrix(support)
    n = len(support)
    if n == 1:
        val = float(-w_s[0] * M[0, 0])
        return RateFunctionResult(val, (support[0],), np.zeros(1), 0.0)

    diagonal = float(w_s @ np.diag(M))
    i, j = np.nonzero(M - np.diag(np.diag(M)))
    a = w_s[i] * M[i, j]
    B = np.zeros((len(i), n))  # the exponent of term k is u_j - u_i = (B u)_k
    B[np.arange(len(i)), j] = 1.0
    B[np.arange(len(i)), i] = -1.0

    E, u = _newton_log_tilt(a, B[:, 1:], np.zeros(n - 1), abs(diagonal))
    scale = abs(diagonal) + float(E.sum())
    stationarity = float(np.max(np.abs(E @ B))) / scale if scale > 0 else 0.0
    return RateFunctionResult(-(diagonal + float(E.sum())), tuple(support), np.r_[0.0, u],
                              stationarity)


def density_bound(gen: Generator, spec: RangeSpec, l) -> float:
    """Pointwise upper bound on the local-time density at l.

    Symmetric generators get the simplified constant exp(|R| (1 + 1/(4 eta T)));
    otherwise the bound uses the conjugated jump matrix built from the
    rate-function minimizer.
    """
    sites = spec.range
    l = as_times(spec, l)
    T = float(l.sum())
    eta = jump_rate_bound(gen, sites)
    A = gen.submatrix(sites)
    mu = l / T
    free = [i for i, s in enumerate(sites) if s not in (spec.start, spec.end)]
    prefactor = float(np.prod(np.sqrt(T / l[free]))) * eta ** (len(sites) - 1)
    if _is_symmetric(A):
        rate = rate_function_symmetric(gen, mu, sites)
        const = np.exp(len(sites) * (1.0 + 1.0 / (4.0 * eta * T)))
        return float(np.exp(-T * rate) * prefactor * const)
    result = rate_function_general(gen, mu, sites)  # l > 0, so its tilt covers every site
    log_r = 0.5 * np.log(l) - result.log_tilt
    # the ratio r_x / r_y may overflow where B_xy = 0, so only the jumps are summed
    i, j = np.nonzero(A - np.diag(np.diag(A)))
    conjugated_sum = float(np.sum(A[i, j] * np.exp(log_r[i] - log_r[j])))
    const = np.exp((1.0 / eta + 1.0 / (4.0 * eta ** 2 * T)) * conjugated_sum)
    return float(np.exp(-T * result.value) * prefactor * const)


# ---------------------------------------------------------------------------
# constraint sets on the probability simplex


@dataclass(frozen=True)
class SimplexBall:
    """Intersection of the probability simplex with a Euclidean ball of
    finite, positive radius around a finite center vector."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.ndim != 1 or not np.all(np.isfinite(self.center)):
            raise ValueError("the center must be a vector of finite numbers")
        if not 0 < self.radius < np.inf:  # also rejects nan
            raise ValueError("radius must be positive and finite")

    def contains(self, mu: np.ndarray, tol: float = 1e-9) -> bool:
        mu = np.asarray(mu, dtype=float)
        return bool(
            np.all(mu >= -tol)
            and abs(mu.sum() - 1.0) <= tol
            and np.linalg.norm(mu - self.center) <= self.radius + tol
        )


# ---------------------------------------------------------------------------
# the variational problem over v = sqrt(mu) shared by the deviation bound and
# the rescaled profiles: inf over mu of <sqrt(mu), L sqrt(mu)> - F(mu)


def _root_objective(apply_L, F: Callable[[np.ndarray], float] | None = None):
    """Objective over v with mu = v^2 / s, s = v.v: the Rayleigh quotient
    q = v.Lv / s minus F(mu), with its gradient (2/s) (Lv - q v) -
    (2/s) (v g - (mu.g) v), g = ``F.gradient(mu)``; a functional without
    ``gradient`` raises ValueError.  ``apply_L`` maps v to Lv for a
    symmetric L; the value ignores the scale of v."""
    if F is not None and not hasattr(F, "gradient"):
        raise ValueError("the functional needs a gradient attribute")

    def objective(v):
        s = float(v @ v)
        Lv = apply_L(v)
        q = float(v @ Lv) / s
        val, grad = q, Lv - q * v
        if F is not None:
            mu = v * v / s
            g = F.gradient(mu)
            val -= F(mu)
            grad -= v * g - float(mu @ g) * v
        return val, (2.0 / s) * grad

    return objective


def _minimize_roots(objective, starts, constraint: SimplexBall | None = None,
                    roots: Callable[[np.ndarray], np.ndarray] | None = None):
    """Minimize the objective from each start; returns the best value, its
    measure v^2 / v.v, the spread of the optima and whether it is within
    1e-6 max(1, |best|).  The solver's variable is v, or x with v = roots(x)
    if given.

    Without a constraint this is L-BFGS-B.  With a SimplexBall it is
    SLSQP on the unit sphere v.v = 1 with v >= 0, where mu = v^2 and the
    ball reads r^2 - |v^2 - c|^2 >= 0; only ends inside the ball count.
    Every mu is within 1 + |c| of c, so a larger r is taken as that, the
    same set, which keeps r^2 finite.
    """
    if constraint is None:
        def solve(v0):
            return minimize(objective, v0, jac=True, method="L-BFGS-B",
                            options={"maxiter": 20_000, "ftol": 1e-16, "gtol": GTOL})
    else:
        c = constraint.center
        r2 = min(constraint.radius, 1.0 + float(np.linalg.norm(c))) ** 2
        conditions = [
            {"type": "eq", "fun": lambda v: v @ v - 1.0, "jac": lambda v: 2.0 * v},
            {"type": "ineq", "fun": lambda v: r2 - np.sum((v * v - c) ** 2),
             "jac": lambda v: -4.0 * v * (v * v - c)},
        ]

        def solve(v0):
            return minimize(objective, v0 / np.linalg.norm(v0), jac=True, method="SLSQP",
                            bounds=[(0.0, None)] * len(v0), constraints=conditions,
                            options={"maxiter": 1000, "ftol": 1e-12})

    best_val, best_mu, optima = np.inf, None, []
    for v0 in starts:
        res = solve(v0)
        v = res.x if roots is None else roots(res.x)
        mu = v * v / float(v @ v)
        if constraint is not None and not constraint.contains(mu):
            continue
        optima.append(float(res.fun))
        if res.fun < best_val:
            best_val, best_mu = float(res.fun), mu
    if not optima:
        raise ValueError("no restart ended inside the constraint set; "
                         "does the ball meet the simplex?")
    spread = max(optima) - min(optima)
    return best_val, best_mu, spread, spread <= 1e-6 * max(1.0, abs(best_val))


@dataclass
class DeviationBoundRhs:
    total: float
    inner_value: float  # inf of the rate function over the constraint set
    error_terms: float
    n_sites: int
    eta: float
    n_restarts: int
    minimizer: np.ndarray
    restarts_agree: bool
    spread: float  # spread of optima across the restarts that ended in the set


def _error_terms(n_sites: int, eta: float, T: float) -> float:
    """The upper bound's error terms: |S| log(eta sqrt(8e) T) + log|S| + |S|/(4T)."""
    return n_sites * np.log(eta * np.sqrt(8 * np.e) * T) + np.log(n_sites) + n_sites / (4.0 * T)


def ldp_upper_bound_rhs(
    gen: Generator,
    S: Sequence[Hashable],
    T: float,
    constraint: SimplexBall | None = None,
    functional: Callable[[np.ndarray], float] | None = None,
    n_restarts: int = 8,
    seed: int = 0,
) -> DeviationBoundRhs:
    """Right-hand side of the finite-horizon upper bound for symmetric
    generators: -T inf I + |S| log(eta sqrt(8e) T) + log|S| + |S|/(4T).

    ``constraint`` restricts the infimum of the rate function to a simplex
    ball (None means the whole simplex, infimum 0 at the invariant
    measure); ``functional`` switches to the expectation form, where the
    inner value is inf [I - F] (so the bound is T sup[F - I] + errors);
    it must carry a ``gradient`` attribute, the gradient of F in mu.
    The rate function is the Dirichlet form of sqrt(mu), so the infimum is
    taken over v = sqrt(mu), from the uniform measure and Dirichlet draws.
    A ball whose center does not have one entry per site, or that no
    restart ends inside, raises ValueError.
    """
    S = tuple(S)
    if not 1 <= T < np.inf:
        raise ValueError(f"the bound requires a finite T >= 1, got {T!r}")
    A = gen.submatrix(S)
    if not _is_symmetric(A):
        raise ValueError("the upper bound is stated for symmetric generators")
    eta = jump_rate_bound(gen, S)
    n = len(S)
    if constraint is not None and len(constraint.center) != n:
        raise ValueError(f"the ball's center has {len(constraint.center)} entries "
                         f"for {n} sites")
    errors = _error_terms(n, eta, T)

    rng = np.random.default_rng(seed)
    starts = (np.sqrt(np.full(n, 1.0 / n) if k == 0 else rng.dirichlet(np.ones(n)))
              for k in range(n_restarts))
    value, mu, spread, agree = _minimize_roots(_root_objective(lambda v: -(A @ v), functional),
                                               starts, constraint)
    return DeviationBoundRhs(
        total=float(-T * value + errors),
        inner_value=value,
        error_terms=float(errors),
        n_sites=n,
        eta=eta,
        n_restarts=n_restarts,
        minimizer=mu,
        restarts_agree=agree,
        spread=spread,
    )


# ---------------------------------------------------------------------------
# discrete variational problems for rescaled profiles


FUNCTIONAL_NAMES = ("zero", "entropy", "power:<gamma>", "linear:<potential file>")


def _box_objective(n_per_axis: int, dim: int, alpha_sq: float, F):
    """``chi_discrete``'s objective over x, where v = roots(x) = S (x / sqrt(lambda)), with S
    (the per-axis sine transform; S = S^T = S^-1) and lambda the eigenbasis and eigenvalues of
    L = (alpha^2 / 2) * the zero-boundary box Laplacian, applied as Lv = S (lambda S v); so
    v.Lv = x.x.  Returns it, roots and roots^-1."""
    k = np.arange(1, n_per_axis + 1)
    S = np.sqrt(2.0 / (n_per_axis + 1)) * np.sin(np.pi * np.outer(k, k) / (n_per_axis + 1))
    per_axis = 2.0 - 2.0 * np.cos(np.pi * k / (n_per_axis + 1))
    lam = 0.5 * alpha_sq * sum(np.meshgrid(*[per_axis] * dim, indexing="ij")).ravel()
    scale = 1.0 / np.sqrt(lam)

    def sine(x):
        for axis in range(dim):
            x = (S @ x.reshape(n_per_axis ** axis, n_per_axis, -1)).ravel()
        return x

    objective = _root_objective(lambda v: sine(lam * sine(v)), F)

    def over_x(x):
        value, grad = objective(sine(scale * x))
        return value, scale * sine(grad)

    return over_x, lambda x: sine(scale * x), lambda v: sine(v) / scale


def make_box_functional(name: str, dim: int, radius: float, n_per_axis: int):
    """Resolve a catalog name into a callable on probability vectors over
    the box lattice, in continuum units.

    Catalog: ``zero``; ``entropy`` (integral of g^2 log g^2);
    ``power:<gamma>`` (minus the integral of g^{2 gamma}); ``linear:<file>``
    (integral of V g^2 with V loaded from a text file over the lattice).
    """
    alpha = (n_per_axis + 1) / (2.0 * radius)

    if name == "zero":
        F = lambda mu: 0.0
        F.gradient = lambda mu: np.zeros_like(mu)
        return F
    if name == "entropy":
        def F(mu):
            m = np.maximum(mu, 1e-300)
            return float(np.sum(m * np.log(alpha ** dim * m)))
        F.gradient = lambda mu: np.log(alpha ** dim * np.maximum(mu, 1e-300)) + 1.0
        return F
    if name.startswith("power:"):
        gamma = float(name.split(":", 1)[1])
        if not 0 < gamma < 1:
            raise ValueError("power exponent must lie in (0, 1)")
        scale = alpha ** (dim * (gamma - 1))
        F = lambda mu: float(-scale * np.sum(np.maximum(mu, 0.0) ** gamma))
        F.gradient = lambda mu: -scale * gamma * np.maximum(mu, 1e-300) ** (gamma - 1.0)
        return F
    if name.startswith("linear:"):
        V = np.loadtxt(name.split(":", 1)[1]).ravel()
        if len(V) != n_per_axis ** dim:
            raise ValueError("potential file does not match the lattice size")
        F = lambda mu: float(V @ mu)
        F.gradient = lambda mu: V
        return F
    raise ValueError(f"unknown functional {name!r}; catalog: {FUNCTIONAL_NAMES}")


def _check_box(dim, radius):
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")


@dataclass
class ChiResult:
    value: float
    minimizer: np.ndarray
    n_nodes: int
    spacing: float
    restarts_agree: bool
    spread: float


def chi_discrete(
    dim: int,
    radius: float,
    n_per_axis: int,
    functional: str | Callable[[np.ndarray], float] = "zero",
    n_restarts: int = 8,
    seed: int = 0,
) -> ChiResult:
    """Discrete version of the box variational problem: minimize the scaled
    lattice Dirichlet energy of sqrt(mu) minus the functional, over
    probability vectors mu on the interior lattice of [-radius, radius]^dim.

    The energy is (1/spacing^2) * (1/2) sum over unordered neighbor pairs
    (including pairs into the zero boundary) of the squared difference of
    sqrt(mu); for the zero functional in one dimension this converges to
    the principal Dirichlet eigenvalue of -Laplacian/2 on the interval.
    A callable ``functional`` must carry a ``gradient`` attribute, the
    gradient of F in mu, as the named functionals do.

    L-BFGS-B runs over x, where the energy is x.x (see ``_box_objective``),
    to gradient tolerance ``GTOL`` in x.
    """
    _check_box(dim, radius)
    if n_per_axis < 2:
        raise ValueError("need at least 2 nodes per axis")
    spacing = 2.0 * radius / (n_per_axis + 1)
    alpha_sq = 1.0 / spacing ** 2
    F = make_box_functional(functional, dim, radius, n_per_axis) if isinstance(functional, str) else functional
    n = n_per_axis ** dim
    objective, roots, from_roots = _box_objective(n_per_axis, dim, alpha_sq, F)

    rng = np.random.default_rng(seed)
    starts = []
    for k in range(n_restarts):
        w0 = np.zeros(n) if k == 0 else rng.normal(scale=1.0, size=n)
        starts.append(from_roots(np.exp(0.5 * (w0 - w0.max()))))  # sqrt of the softmax start
    value, mu, spread, agree = _minimize_roots(objective, starts, roots=roots)
    return ChiResult(
        value=value,
        minimizer=mu,
        n_nodes=n,
        spacing=spacing,
        restarts_agree=agree,
        spread=spread,
    )


def rescaled_bound_experiment(
    dim: int,
    radius: float,
    T_values: Sequence[float],
    functional: str = "zero",
    alpha_exponent: float = 0.25,
    n_restarts: int = 4,
    seed: int = 0,
) -> list[dict]:
    """Tabulate the scaled finite-horizon upper bound against the discrete
    variational value across horizons, with the scale alpha = T^exponent.

    For each T the box lattice has interior radius floor(radius * alpha),
    which must be at least 1; the row reports the scaled error terms and
    the scaled bound alongside the discrete variational value.

    The scaled error terms (alpha^2 / T) * (|S| log(eta sqrt(8e) T) +
    log|S| + |S|/(4T)), with |S| of order alpha^dim, vanish at the rate
    alpha^(dim+2) log T / T, so only when alpha^(dim+2) log T = o(T). With
    alpha_exponent >= 1/(dim+2) they do not vanish: at exponent 0.3 in one
    dimension they shrink only 1.2x from T=1e2 to T=1e8, and at 1/3 they
    grow.
    """
    _check_box(dim, radius)
    rows = []
    for T in T_values:
        alpha = float(T) ** alpha_exponent
        # a few ulps of slack, so an exact power (1e6 ** (1/3) evaluates to
        # 99.99999999999997) keeps its outer lattice layer
        n_int = int(np.floor(radius * alpha * (1.0 + 8 * np.finfo(float).eps)))
        if n_int == 0:
            raise ValueError(
                f"box at T={T} has a single site (radius * alpha = {radius * alpha:.3g} < 1)"
            )
        n_per_axis = 2 * n_int + 1
        n_sites = n_per_axis ** dim
        # rate-1-per-neighbor walk on the box: row/column sums of the jump
        # matrix are at most 2*dim, floored at 1
        eta = max(2.0 * dim, 1.0)
        chi = chi_discrete(dim, radius, n_per_axis, functional,
                           n_restarts=n_restarts, seed=seed)
        error_terms = _error_terms(n_sites, eta, T)
        scaled_errors = (alpha ** 2 / T) * error_terms
        rows.append(
            {
                "T": float(T),
                "alpha": alpha,
                "n_sites": n_sites,
                "eta": eta,
                "scaled_inner_inf": chi.value,
                "scaled_error_terms": float(scaled_errors),
                "scaled_rhs": float(-chi.value + scaled_errors),
            }
        )
    return rows
