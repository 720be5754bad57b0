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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from .chain import Generator, RangeSpec

CHUNK_SIZE = 65536
# path-jumps per engine step once few paths are left; see ``_run_chunk``
BLOCK = 4096

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
    one-jump step draws and sums as a plain one-jump loop would.
    """
    exit_rates, targets, cum = jump_table
    n_states = len(exit_rates)
    # one row per slot: a lookup takes the slots of many states at once
    cum_by_slot = np.ascontiguousarray(cum.T)
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
        for k in range(1, K):
            src = visited[k - 1]
            slot = (u[k - 1] >= cum_by_slot.take(src, axis=1)).sum(axis=0)
            visited[k] = targets[src, slot]
        hold = np.where(moves[visited], hold / rate[visited], np.inf)
        clock = hold if site_idx is None else np.where(ticks[visited], hold, 0.0)
        if K > 1:  # one row is its own sum; an axis-0 cumsum pays per column
            clock = np.cumsum(clock, axis=0)
        left = remaining[active]
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

