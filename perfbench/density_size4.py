"""density-size4: the density layer on a size-4 range.

Each round draws a fresh seeded five-state chain whose range is sites
0..3 (site 4 lies outside, so the range has killing).  The in-range jump
rates are scaled so that the largest series strength over the simplex,
T * lambda_max(sym |B|), is ``STRENGTH``; that fixes the truncation degree
at 14 (17,782 flows) on every seed, so the work per point does not depend
on the seed.  A round is

* the batch use: ``simplex_integrate`` on a grid, which calls
  ``SeriesEvaluator.values`` on 4,608 points;
* the per-point use: series, quadrature and finite differences at
  ``POINTS`` interior points.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from loctimes import chain, density, oracles

import checks
from tracing import clock

TAG = 1
OTHER = 1 << 20  # stream numbers past any round index
T = 1.0
STRENGTH = 0.54
RESOLUTION = 16
POINTS = 2
RANGE = (0, 1, 2, 3)
PRIMARY, SECONDARY = "series", "crosscheck"


def make_chain(seed: int, r: int):
    rng = np.random.default_rng([seed, TAG, r])
    B = rng.uniform(0.05, 1.0, size=(5, 5))
    np.fill_diagonal(B, 0.0)
    sub = B[:4, :4]
    lam = np.linalg.eigvalsh(0.5 * (sub + sub.T)).max()
    B[:4, :4] *= STRENGTH / (T * lam)
    A = B - np.diag(B.sum(axis=1))
    gen = chain.validate_generator(A)
    spec = chain.RangeSpec(RANGE, 0, int(rng.integers(1, 4)))
    # interior points, kept off the boundary so the finite-difference
    # stencil stays inside the simplex
    points = T * (0.5 / 4 + 0.5 * rng.dirichlet(np.ones(4), size=POINTS))
    return gen, spec, points


def _grid(gen, spec, meter=None):
    ev = density.SeriesEvaluator(gen, spec)

    def f(L):
        t0 = clock()
        out = ev.values(L)[0]
        if meter is not None:
            meter.add(PRIMARY, clock() - t0, len(L))
        return out

    return oracles.simplex_integrate(f, oracles.SimplexChart(spec, T), resolution=RESOLUTION)


def _crosscheck(gen, spec, l):
    return (density.density_series(gen, spec, l),
            density.density_quadrature(gen, spec, l),
            density.density_finite_difference(gen, spec, l))


def setup(seed: int):
    """Imports, the first chain, and the first call of every evaluator;
    the first grid call builds the flow table cold."""
    ctx = SimpleNamespace()
    ctx.seed = seed
    gen, spec, points = make_chain(seed, OTHER)
    t0 = clock()
    _grid(gen, spec)
    ctx.cold_grid_s = clock() - t0
    _crosscheck(gen, spec, points[0])
    ctx.warm = (gen, spec)
    ctx.rounds = []
    return ctx


def run_round(ctx, r: int, meter, tracer):
    gen, spec, points = make_chain(ctx.seed, r)
    grid = _grid(gen, spec, meter)
    cross = []
    for l in points:
        with meter.op(SECONDARY, 1):
            cross.append(_crosscheck(gen, spec, l))
    ctx.rounds.append((gen, spec, grid, cross))


def failed(ctx) -> int:
    return 0  # the evaluators report no failure short of raising


def check(ctx, meter):
    # the cold-minus-warm time of the first grid call is the flow-table build
    t0 = clock()
    _grid(*ctx.warm)
    table_build_s = ctx.cold_grid_s - (clock() - t0)
    out, worst_rel, worst_ratio, nodes = [], 0.0, 0.0, []
    for gen, spec, grid, cross in ctx.rounds:
        exact = oracles.range_exact_prob(gen, spec, T)
        out.append(checks.marginal(grid.value, grid.error_estimate, exact))
        worst_rel = max(worst_rel, abs(grid.value - exact) / abs(exact))
        for rs, rq, rf in cross:
            c, ratio = checks.evaluators_agree(
                [rs.value, rq.value, rf.value],
                [rs.error_estimate, rq.error_estimate, rf.error_estimate])
            out.append(c)
            worst_ratio = max(worst_ratio, ratio)
            nodes.append(rq.meta["nodes_per_angle"])
    out.extend(two_state_checks(ctx.seed))
    figures = {
        "density.table_build_s": table_build_s,
        "density.series_batch_points": meter.total(PRIMARY)[1],
        "density.quadrature_nodes_per_angle": float(np.median(nodes)),
        "density.crosscheck_spread_over_budget": worst_ratio,
        "oracles.marginal_rel_err": worst_rel,
    }
    return out, figures


def two_state_checks(seed: int, n: int = 4):
    """The series on {0, 1}, 0 -> 1, against the Bessel closed form."""
    rng = np.random.default_rng([seed, TAG, OTHER + 1])
    out = []
    for _ in range(n):
        p, q = rng.uniform(0.5, 1.5, size=2)
        l1 = rng.uniform(0.2, 1.8)
        gen = chain.validate_generator([[-p, p], [q, -q]])
        got = density.density_series(gen, chain.RangeSpec((0, 1), 0, 1), [l1, 2.0 - l1]).value
        out.append(checks.relative("two-state closed form", got,
                                   checks.two_state_density(p, q, l1, 2.0 - l1),
                                   checks.CLOSED_FORM_RTOL))
    return out
