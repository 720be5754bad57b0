"""ldp-bounds: the only workload where ``ldp`` runs.

It exercises both optimizers of the layer:

* projected descent with forward-difference gradients, in
  ``ldp_upper_bound_rhs`` with a ``SimplexBall`` constraint (seeded
  symmetric chains on 2 and 3 sites);
* L-BFGS, in ``chi_discrete`` (zero and entropy functionals, 1-D box of
  radius 1 with ``CHI_NODES`` nodes) and in ``density_bound`` on seeded
  non-symmetric three-state chains.

On 2 sites the ball excludes the uniform measure, so the constraint is
active; on 3 sites it contains it.

The cost of an ``ldp_upper_bound_rhs`` call depends on its input: over
40 seeded instances the relative quartile spread of the call time was
0.65 on 2 sites and 0.82 on 3, and repeated calls on the same instance
correlated at 0.96-0.996.  With inputs seeded per round, this rate had
the widest spread of the benchmark (0.17 over ten seeds).  So the calls take their inputs from
a fixed pool of ``RHS_POOL`` instances per site count, drawn once from
``RHS_POOL_SEED`` and cycled by round, as the battery of ``rk-profile``
cycles fixed inputs; the chains, points and optimizer seeds of
``chi_discrete`` and ``density_bound`` stay seeded.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from loctimes import chain, density, ldp

import checks

TAG = 4
OTHER = 1 << 20  # stream numbers past any round index
RHS_SITES = (2, 2, 3, 3)
RHS_POOL, RHS_POOL_SEED = 8, 20240
CHI_NODES, CHI_RESTARTS = 32, 4
BOUND_CALLS = 8
PRIMARY, SECONDARY = "rhs", "chi"


def _symmetric(n: int, rng):
    B = rng.uniform(0.5, 1.0, size=(n, n))
    B = 0.5 * (B + B.T)
    np.fill_diagonal(B, 0.0)
    return chain.validate_generator(B - np.diag(B.sum(axis=1)))


def rhs_instance(n: int, rng):
    gen = _symmetric(n, rng)
    d = rng.normal(size=n)
    d -= d.mean()
    d /= np.linalg.norm(d)
    offset, radius = (0.25, 0.1) if n == 2 else (0.05, 0.2)
    ball = ldp.SimplexBall(np.full(n, 1.0 / n) + offset * d, radius)
    return gen, ball, float(rng.uniform(1.0, 10.0)), int(rng.integers(1 << 30))


def bound_instance(rng):
    B = rng.uniform(0.05, 1.0, size=(3, 3))
    np.fill_diagonal(B, 0.0)
    gen = chain.validate_generator(B - np.diag(B.sum(axis=1)))
    spec = chain.RangeSpec((0, 1, 2), int(rng.integers(3)), int(rng.integers(3)))
    return gen, spec, rng.uniform(0.5, 1.5) * rng.dirichlet(np.ones(3))


def setup(seed: int):
    ctx = SimpleNamespace()
    ctx.seed = seed
    rng = np.random.default_rng([seed, TAG, OTHER])
    for n in (2, 3):
        gen, ball, T, s = rhs_instance(n, rng)
        ldp.ldp_upper_bound_rhs(gen, tuple(range(n)), T, constraint=ball, seed=s, n_restarts=4)
    # the first L-BFGS solve pays for lazy initialisation in scipy
    ldp.chi_discrete(1, 1.0, CHI_NODES, "zero", n_restarts=1)
    ldp.density_bound(*bound_instance(rng))
    pool = np.random.default_rng([RHS_POOL_SEED, TAG])
    ctx.rhs_pool = {n: [rhs_instance(n, pool) for _ in range(RHS_POOL)]
                    for n in sorted(set(RHS_SITES))}
    ctx.rounds = []
    return ctx


def run_round(ctx, r: int, meter, tracer):
    rng = np.random.default_rng([ctx.seed, TAG, r])
    rhs = []
    for j, n in enumerate(RHS_SITES):
        per_round = RHS_SITES.count(n)
        gen, ball, T, s = ctx.rhs_pool[n][(per_round * r + RHS_SITES[:j].count(n)) % RHS_POOL]
        with meter.op(PRIMARY, 1):
            res = ldp.ldp_upper_bound_rhs(gen, tuple(range(n)), T, constraint=ball, seed=s,
                                          n_restarts=4)
        rhs.append((gen, ball, res))
    chi_seed = int(rng.integers(1 << 30))
    with meter.op(SECONDARY, 1):
        zero = ldp.chi_discrete(1, 1.0, CHI_NODES, "zero", n_restarts=CHI_RESTARTS, seed=chi_seed)
    with meter.op(SECONDARY, 1):
        entropy = ldp.chi_discrete(1, 1.0, CHI_NODES, "entropy", n_restarts=CHI_RESTARTS,
                                   seed=chi_seed)
    bounds = []
    for _ in range(BOUND_CALLS):
        gen, spec, l = bound_instance(rng)
        with meter.op("density_bound", 1):
            bounds.append((gen, spec, l, ldp.density_bound(gen, spec, l)))
    ctx.rounds.append((rhs, zero, entropy, bounds))


def failed(ctx) -> int:
    return 0  # the optimizers report no failure short of raising


def grid_minimum(gen, ball, points: int = 1001) -> float:
    """Brute-force minimum of the Dirichlet form of sqrt(mu) over the grid
    points of the simplex that lie in the ball."""
    n = gen.n_states
    t = np.linspace(0.0, 1.0, points)
    if n == 2:
        mu = np.stack([t, 1.0 - t], axis=1)
    else:
        a, b = np.meshgrid(t, t, indexing="ij")
        keep = a + b <= 1.0
        mu = np.stack([a[keep], b[keep], np.clip(1.0 - a[keep] - b[keep], 0.0, None)], axis=1)
    mu = mu[np.linalg.norm(mu - ball.center, axis=1) <= ball.radius]
    root = np.sqrt(mu)
    return float(np.min(np.einsum("ix,xy,iy->i", root, -gen.rates, root)))


def entropy_objective(mu: np.ndarray, radius: float = 1.0) -> float:
    """Objective of chi_discrete with the entropy functional (1-D), written
    out from its definition: (alpha^2 / 2) sum of squared differences of
    sqrt(mu) over neighbour pairs, boundary zeros included, minus
    sum mu log(alpha mu)."""
    n = len(mu)
    alpha = (n + 1) / (2.0 * radius)
    v = np.concatenate([[0.0], np.sqrt(mu), [0.0]])
    energy = 0.5 * alpha ** 2 * float(np.sum(np.diff(v) ** 2))
    m = np.maximum(mu, 1e-300)
    return energy - float(np.sum(m * np.log(alpha * m)))


def check(ctx, meter):
    out, gaps, chi_err, margins = [], [], [], []
    want = checks.lattice_eigenvalue(CHI_NODES, 1.0, 1)
    for rhs, zero, entropy, bounds in ctx.rounds:
        for gen, ball, res in rhs:
            grid = grid_minimum(gen, ball)
            out.append(checks.at_most("rhs inner value <= grid minimum", res.inner_value,
                                      grid + checks.GRID_ATOL))
            out.append(checks.in_ball(res.minimizer, ball.center, ball.radius))
            gaps.append(res.inner_value - grid)
        out.append(checks.relative("chi zero = lattice eigenvalue", zero.value, want,
                                   checks.CHI_RTOL))
        chi_err.append(abs(zero.value - want) / want)
        out.append(checks.at_most("chi entropy <= objective at zero minimizer", entropy.value,
                                  entropy_objective(zero.minimizer) + 1e-12))
        for gen, spec, l, bound in bounds:
            ref = density.density_series(gen, spec, l)
            out.append(checks.at_least("density_bound >= series - error", bound,
                                       ref.value - ref.error_estimate))
            margins.append(bound / (ref.value - ref.error_estimate) - 1.0)
    out.extend(symmetric_checks(ctx.seed))
    figures = {
        "ldp.rhs_grid_gap": max(gaps),
        "ldp.chi_rel_err": max(chi_err),
        "ldp.bound_min_margin": min(margins),
    }
    return out, figures


def symmetric_checks(seed: int, n_chains: int = 4):
    rng = np.random.default_rng([seed, TAG, OTHER + 1])
    out = []
    for k in range(n_chains):
        gen = _symmetric(2 + k % 3, rng)
        mu = rng.dirichlet(np.ones(gen.n_states))
        sym = ldp.rate_function_symmetric(gen, mu)
        gen_value = ldp.rate_function_general(gen, mu, gen.states).value
        out.append(checks.absolute("general = symmetric rate function", gen_value, sym,
                                   checks.SYMMETRIC_ATOL))
    return out
