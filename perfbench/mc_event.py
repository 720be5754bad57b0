"""mc-event: ``simulate.mc_event_functional`` on two chains.

* small: a seeded three-state chain with exit rate 2 at every state, range
  all three states, horizon 1.5.  A jump is cheap here.
* box: the rate-1 walk on the 2-D box of radius 10 (441 states), range the
  origin and one seeded neighbour, horizon 0.5.  The jump lookup scans all
  441 states, so it dominates.  Box calls take ``BOX_PATHS`` paths: at a
  full chunk of 65,536 paths each call maps and faults in fresh
  (65,536 x 441) arrays, and the rate then follows the host's memory
  traffic (118k-228k paths/s from call to call here) more than the code.

Exit rates and horizons are fixed, so the expected jumps per path do not
depend on the seed; the seed sets the jump split, the end state, the box
neighbour and the random streams.  Density and oracles compute only the
small references, outside the measured window.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from loctimes import chain, density, oracles, simulate

import checks

TAG = 2
SMALL_T, BOX_T = 1.5, 0.5
PATHS = 65536  # one simulation chunk
BOX_PATHS, BOX_CALLS = 8192, 4
REFERENCE_RESOLUTION = 256
PRIMARY, SECONDARY = "box", "small"


def _small_chain(seed: int):
    rng = np.random.default_rng([seed, TAG])
    B = np.zeros((3, 3))
    for i in range(3):
        w = rng.uniform(0.25, 0.75)
        j, k = [x for x in range(3) if x != i]
        B[i, j], B[i, k] = 2.0 * w, 2.0 * (1.0 - w)
    gen = chain.validate_generator(B - np.diag(B.sum(axis=1)))
    return gen, chain.RangeSpec((0, 1, 2), 0, int(rng.integers(3))), rng


def one(L):
    return np.ones(len(L))


def l0(L):
    return L[:, 0]


def setup(seed: int):
    ctx = SimpleNamespace()
    ctx.seed = seed
    ctx.small, ctx.small_spec, rng = _small_chain(seed)
    ctx.box = chain.box_srw(2, 10)
    step = [(1, 0), (-1, 0), (0, 1), (0, -1)][int(rng.integers(4))]
    ctx.box_spec = chain.RangeSpec(((0, 0), step), (0, 0), [(0, 0), step][int(rng.integers(2))])
    simulate.mc_event_functional(ctx.small, ctx.small_spec, SMALL_T, one, 1024, seed)
    simulate.mc_event_functional(ctx.box, ctx.box_spec, BOX_T, one, 1024, seed)
    ctx.rounds = []
    return ctx


def run_round(ctx, r: int, meter, tracer):
    s = [ctx.seed, r]
    F1, Fl0 = tracer.wrap("simulate.functional", one), tracer.wrap("simulate.functional", l0)
    with meter.op(SECONDARY, PATHS):
        a = simulate.mc_event_functional(ctx.small, ctx.small_spec, SMALL_T, F1, PATHS,
                                         hash_seed(s, 0))
    with meter.op(SECONDARY, PATHS):
        b = simulate.mc_event_functional(ctx.small, ctx.small_spec, SMALL_T, Fl0, PATHS,
                                         hash_seed(s, 1))
    box = []
    for k in range(BOX_CALLS):
        with meter.op(PRIMARY, BOX_PATHS):
            box.append(simulate.mc_event_functional(ctx.box, ctx.box_spec, BOX_T, F1, BOX_PATHS,
                                                    hash_seed(s, 2 + k)))
    ctx.rounds.append((a, b, box))


def hash_seed(parts, k: int) -> int:
    """A 63-bit stream key from (seed, round, call)."""
    return int(np.random.SeedSequence(list(parts) + [k]).generate_state(1, np.uint64)[0] >> 1)


def failed(ctx) -> int:
    return sum(est.zero_accepted for a, b, box in ctx.rounds for est in (a, b, *box))


def accepted_fraction(estimates) -> float:
    return sum(e.n_accepted for e in estimates) / sum(e.n_paths for e in estimates)


def check(ctx, meter):
    small_p = oracles.range_exact_prob(ctx.small, ctx.small_spec, SMALL_T)
    box_p = oracles.range_exact_prob(ctx.box, ctx.box_spec, BOX_T)
    ev = density.SeriesEvaluator(ctx.small, ctx.small_spec)
    small_l0 = oracles.simplex_integrate(lambda L: ev.values(L)[0] * L[:, 0],
                                         oracles.SimplexChart(ctx.small_spec, SMALL_T),
                                         resolution=REFERENCE_RESOLUTION).value
    out, zs = [], []
    # With F=1 the estimate is an event frequency, whose standard error
    # under the exact probability is known.  The estimate's own standard
    # error shrinks with a low count: on the box, whose event can be as rare
    # as 0.017, one call in 8,192-path calls of seed 204 read 5.06 of its own
    # standard errors low, 4.1 of the exact ones.
    for a, b, box in ctx.rounds:
        for name, est, exact, se in (
            ("small F=1", a, small_p, checks.binomial_se(small_p, a.n_paths)),
            ("small F=l_0", b, small_l0, b.std_error),
            *(("box F=1", c, box_p, checks.binomial_se(box_p, c.n_paths)) for c in box),
        ):
            chk, z = checks.mc_z(name, est.mean, se, exact)
            out.append(chk)
            zs.append(z)
    # two chunks, so the second worker has a chunk of its own
    seq, par = (simulate.mc_event_functional(ctx.small, ctx.small_spec, SMALL_T, l0, 2 * PATHS,
                                             ctx.seed, workers=w) for w in (1, 2))
    out.append(checks.identical("workers 1 and 2 bit-identical", (seq.mean, seq.std_error),
                                (par.mean, par.std_error)))
    small = [e for a, b, _ in ctx.rounds for e in (a, b)]
    box = [e for _, _, calls in ctx.rounds for e in calls]
    figures = {
        "simulate.accepted_fraction_small": accepted_fraction(small),
        "simulate.accepted_fraction_box": accepted_fraction(box),
        "simulate.mc_z_max": max(zs),
        "simulate.mc_small_s": meter.total(SECONDARY)[0],
        "simulate.mc_box_s": meter.total(PRIMARY)[0],
        # the reference grid is the only series batch here
        "density.series_batch_points": REFERENCE_RESOLUTION ** 2 + (REFERENCE_RESOLUTION // 2) ** 2,
    }
    return out, figures
