"""Exact event-driven simulation of the chain and Monte Carlo estimation.

Paths are simulated by the jump-chain construction: exponential holding at
the current state's exit rate, then a categorical jump.  The lockstep
engine ``run_lockstep`` runs fixed-size chunks of paths side by side with
per-chunk counter-based random streams, until a horizon or until a level
of local time at one site, so results are bit-identical for a fixed seed
no matter how the chunks are scheduled across workers, and returns every
state's local time.  The Ray-Knight profile walk runs on it, and so does
the Monte Carlo estimator here, on the chain restricted to the range with
each path weighted by e^{-k.L}, k the rates of leaving the range
(Feynman-Kac).
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from .chain import Generator, RangeSpec

CHUNK_SIZE = 65536
# path-jumps per engine step once few paths are left; see ``_run_chunk``
BLOCK = 4096
# rows filled between two tests of whether a block's paths have all
# stopped; see ``_run_chunk``.  Scaling, summing and testing a stretch of
# 64 rows takes about 10 us at m = 3, a sixth of filling it in Python; a
# cut block fills 32 rows too many on average.  Tests every 32, 64, 128
# or 256 rows timed the same within noise on the 100- and 300-path walks.
_CHECK_ROWS = 64
# active paths up to which a row is filled in Python; see ``_run_chunk``.
# Per row numpy's lookup takes 3.4-4.0 us at every m up to 64, a Python
# row 0.8 us at m = 1, 1.5-1.7 at 8, 3.2-3.4 at 24 and 3.9-4.5 at 32.
_FEW_PATHS = 24

__all__ = [
    "McEstimate",
    "SimulationError",
    "run_lockstep",
    "mc_event_functional",
]


class SimulationError(RuntimeError):
    """Raised when a path is absorbed off the site before its local time
    there reaches the level."""


@dataclass
class McEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed: int
    n_accepted: int = 0
    zero_accepted: bool = False


def _run_chunk(jump_table, start_idx, n, rng, limit, site_idx=None, max_jumps=np.inf):
    """Lockstep simulation of n paths from ``start_idx``.

    A path stops when its clock reaches ``limit``: the elapsed time, or with
    ``site_idx`` the local time there.  With a site, a path absorbed at
    another state would never stop and raises ``SimulationError``.  Paths
    still running after ``max_jumps`` jumps are censored.  Returns local
    times, one column per state in state order, final state indices and
    censored flags.

    Each step advances the m active paths by up to K jumps, K =
    min(BLOCK // m, jumps made so far, max_jumps - jumps) and at least 1,
    from a (K, m) block of holds and a (K, m) block of uniforms.  A
    one-jump step draws and sums as a plain one-jump loop would.  The
    visited states are filled row by row, ``_CHECK_ROWS`` rows at a time,
    and the clock is summed as each stretch is filled; once every path's
    clock has reached the limit the block is cut there, so no row after
    the last path's stop is filled.  The draws are made before the fill,
    and the clock's running sums are the rows of one cumulative sum over
    the block, so the cut changes no output.  With at most ``_FEW_PATHS``
    active paths a row is filled in Python, by bisect, and otherwise by
    numpy's lookup: a numpy row costs about the same at any m up to 64,
    its per-call cost, and a Python row grows with m and passes it
    between m = 24 and 32.  Both pick the same jumps.
    """
    exit_rates, targets, cum = jump_table
    n_states = len(exit_rates)
    # one row per slot: a lookup takes the slots of many states at once
    cum_by_slot = np.ascontiguousarray(cum.T)
    # the few-path fill's rows: bisect_right on a row of ``cum`` counts its
    # entries <= u, as the numpy lookup does, since every entry above u
    # follows every entry at or below it (the last real entry is 1.0 > u,
    # the padding +inf)
    cum_rows, target_rows = cum.tolist(), targets.tolist()
    ticks = np.ones(n_states, dtype=bool) if site_idx is None else np.arange(n_states) == site_idx
    moves = exit_rates > 0
    rate = np.maximum(exit_rates, 1e-300)
    # absorbing states off the site are checked for per step only if any
    # exist; the Ray-Knight walk's chains have none
    traps = ~moves & ~ticks
    check_traps = traps.any()
    state = np.full(n, start_idx, dtype=np.intp)
    remaining = np.full(n, float(limit))
    local = np.zeros((n, n_states))
    active = np.arange(n)
    jumps = 0
    while len(active) and jumps < max_jumps:
        m = len(active)
        K = int(max(1, min(BLOCK // m, jumps, max_jumps - jumps)))
        hold = rng.exponential(1.0, size=(K, m))
        u = rng.random((K, m))
        visited = np.empty((K, m), dtype=np.intp)
        visited[0] = state[active]
        clock = np.empty((K, m))
        left = remaining[active]
        done = 0  # rows filled, with their holds scaled and summed into ``clock``
        while done < K:
            stop = min(done + _CHECK_ROWS, K)
            lo = max(done, 1)  # row 0 holds the states the block starts from
            if m <= _FEW_PATHS:
                prev, filled = visited[lo - 1].tolist(), []
                for row_u in u[lo - 1:stop - 1].tolist():
                    prev = [target_rows[s][bisect_right(cum_rows[s], x)]
                            for s, x in zip(prev, row_u)]
                    filled.append(prev)
                if filled:
                    visited[lo:stop] = filled
            else:
                for k in range(lo, stop):
                    src = visited[k - 1]
                    slot = (u[k - 1] >= cum_by_slot.take(src, axis=1)).sum(axis=0)
                    visited[k] = targets[src, slot]
            v, h = visited[done:stop], hold[done:stop]
            h[:] = np.where(moves[v], h / rate[v], np.inf)
            clock[done:stop] = h if site_idx is None else np.where(ticks[v], h, 0.0)
            # an axis-0 cumsum adds row by row, so carrying it on from the
            # last summed row gives the rows of one cumsum over the block;
            # one row is its own sum, and a cumsum pays per column
            first = max(done - 1, 0)
            if stop - first > 1:
                clock[first:stop] = np.cumsum(clock[first:stop], axis=0)
            done = stop
            if done < K and (clock[done - 1] >= left).all():
                K = done
                hold, u, visited, clock = hold[:K], u[:K], visited[:K], clock[:K]
        # a path's clock never falls, and as the level is positive it first
        # reaches the level on a row at the site; the rows before ``last``
        # are whole holds, a stopped path's row ``last`` holds what was left
        # of its clock, and the rows after it are unused
        last = K - (clock >= left).sum(axis=0)
        rows = np.arange(K)[:, None]
        if check_traps:
            stuck = visited[traps[visited] & (rows < last)]
            if len(stuck):
                raise SimulationError(f"absorbed at state index {stuck[0]} before reaching level")
        before = np.zeros((K, m))
        before[1:] = clock[:-1]
        dt = np.where(rows < last, hold, np.where(rows == last, left - before, 0.0))
        # a path may visit a state more than once in a block
        np.add.at(local.reshape(-1), (active * n_states + visited).ravel(), dt.ravel())
        # integer selections: boolean masks index much slower
        ends, on = np.flatnonzero(last < K), np.flatnonzero(last == K)
        state[active[ends]] = visited.reshape(-1)[last[ends] * m + ends]
        active = active[on]
        if len(active):
            remaining[active] = left[on] - clock[-1][on]
            src = visited[-1][on]
            slot = (u[-1][on] >= cum_by_slot.take(src, axis=1)).sum(axis=0)
            state[active] = targets[src, slot]
        jumps += K
    censored = np.zeros(n, dtype=bool)
    censored[active] = True
    return local, state, censored


def run_lockstep(
    gen: Generator,
    start: Hashable,
    n_paths: int,
    seed: int,
    limit: float,
    reduce: Callable,
    site: Hashable | None = None,
    max_jumps: float = np.inf,
    workers: int = 1,
) -> list:
    """Simulate ``n_paths`` paths from ``start`` in chunks of ``CHUNK_SIZE``
    and return ``reduce(local, state, censored)`` per chunk, in chunk order,
    with the arrays and stop rule of ``_run_chunk``.

    Chunk c draws from the Philox stream keyed ``[seed, c]``, so the result
    does not depend on ``workers``.  The jump table is the generator's own,
    built on first use.  Raises ``ValueError`` for fewer than one path, or
    for a limit that is not a positive finite number.
    """
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if not 0 < limit < np.inf:
        raise ValueError(f"the limit must be positive and finite, got {limit}")
    jump_table = gen.jump_table
    start_idx = gen.index(start)
    site_idx = None if site is None else gen.index(site)

    def one_chunk(c):
        n = min(CHUNK_SIZE, n_paths - c * CHUNK_SIZE)
        rng = np.random.Generator(np.random.Philox(key=[seed, c]))
        return reduce(*_run_chunk(jump_table, start_idx, n, rng, limit, site_idx, max_jumps))

    n_chunks = (n_paths + CHUNK_SIZE - 1) // CHUNK_SIZE
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(one_chunk, range(n_chunks)))
    return [one_chunk(c) for c in range(n_chunks)]


def mc_event_functional(
    gen: Generator,
    spec: RangeSpec,
    T: float,
    F: Callable[[np.ndarray], np.ndarray],
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of E_start[F(local times) on {end at spec.end,
    range exactly spec.range}].

    Paths run on the chain restricted to the range, whose exits are
    removed, and each is weighted by e^{-k.L}, k_x the rate of leaving the
    range from x (Feynman-Kac); k is 0 when the range holds every state.
    ``F`` receives a 2-D array of the local-time vectors (columns ordered by
    spec.range) of the paths that visit the whole range and end at
    spec.end, ``n_accepted`` of them, and returns one value per row.  Other
    paths contribute 0.  The chunked per-stream design makes the result
    independent of the worker count.
    """
    idx = gen.indices(spec.range)
    off = gen.off_diagonal()[idx]
    inner, kill = off[:, idx], np.delete(off, idx, axis=1).sum(axis=1)
    # not validate_generator: it rejects a one-state chain
    on_range = Generator(spec.range, inner - np.diag(inner.sum(axis=1)))
    end_idx = on_range.index(spec.end)

    def reduce(local, state, _censored):
        # a state is visited exactly when its local time is positive
        ok = (state == end_idx) & np.all(local > 0, axis=1)
        if not np.any(ok):
            return 0.0, 0.0, 0
        L = local[ok]
        vals = np.asarray(F(L), dtype=float) * np.exp(-(L @ kill))
        return float(vals.sum()), float((vals ** 2).sum()), int(ok.sum())

    parts = run_lockstep(on_range, spec.start, n_paths, seed, T, reduce, workers=workers)
    total = np.sum([p[0] for p in parts])
    total_sq = np.sum([p[1] for p in parts])
    n_acc = int(np.sum([p[2] for p in parts]))
    mean = total / n_paths
    var = max(total_sq / n_paths - mean ** 2, 0.0)
    se = float(np.sqrt(var / max(n_paths - 1, 1)))
    return McEstimate(mean=float(mean), std_error=se, n_paths=n_paths, seed=seed,
                      n_accepted=n_acc, zero_accepted=n_acc == 0)

