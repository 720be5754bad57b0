import hashlib

import numpy as np
import pytest

from loctimes.chain import RangeSpec, box_srw, validate_generator
from loctimes.oracles import killed_prob, matrix_exponential, range_exact_prob
from loctimes.rayknight import simulate_profiles
from loctimes import simulate
from loctimes.simulate import BLOCK, SimulationError, mc_event_functional, run_lockstep

TWO_STATE = validate_generator([[-1, 1], [1, -1]])


def arrays(local, state, censored):
    return local, state, censored


# E[time spent at the start site of the symmetric two-state chain up to T]:
# occupation integral of the semigroup diagonal
def expected_local_time_at_start(T):
    return T / 2.0 + (1.0 - np.exp(-2.0 * T)) / 4.0


def test_local_times_partition_horizon():
    gen = validate_generator([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    [(local, state, censored)] = run_lockstep(gen, 0, 20, 0, 3.0, arrays)
    assert local.sum(axis=1) == pytest.approx(np.full(20, 3.0), abs=1e-12)
    # the last holding interval is spent at the final state
    assert np.all(local[np.arange(20), state] > 0)
    assert not censored.any()


def test_absorbing_state_holds():
    gen = validate_generator([[-5, 5], [0, 0]])
    [(local, state, censored)] = run_lockstep(gen, 0, 1000, 1, 50.0, arrays)
    assert np.all(state == 1)
    assert np.all(local[:, 1] > 0)
    assert not censored.any()


def test_mean_local_time_matches_semigroup():
    T = 1.0
    parts = [
        mc_event_functional(
            TWO_STATE,
            RangeSpec((0, 1), 0, end),
            T,
            lambda L: L[:, 0],
            n_paths=200_000,
            seed=42,
        )
        for end in (0, 1)
    ]
    # paths that never leave site 0 fall outside the two-site range event
    single = np.exp(-T) * T
    total = sum(p.mean for p in parts) + single
    se = np.hypot(parts[0].std_error, parts[1].std_error)
    target = expected_local_time_at_start(T)
    assert abs(total - target) < 4 * se


def test_no_jump_probability():
    # the one-state range chain never jumps, so every path has the weight
    # e^{-kT} of staying put, k the rate of leaving the site: the estimate
    # is exact, and its standard error 0 with one chunk of paths or two
    three_state = validate_generator([[-1, 1, 0], [1, -2, 1], [0, 1, -1]])
    for gen, site, k, T, n_paths in [(TWO_STATE, 0, 1.0, 1.5, 100_000),
                                     (three_state, 1, 2.0, 0.5, 20_000),
                                     (three_state, 1, 2.0, 2.0, 20_000)]:
        est = mc_event_functional(gen, RangeSpec((site,), site, site), T,
                                  lambda L: np.ones(len(L)), n_paths=n_paths, seed=3)
        assert est.mean == pytest.approx(np.exp(-k * T), rel=1e-15, abs=0)
        assert est.std_error == 0.0


def test_absorbing_chain_event_probability():
    # range {0, 1} ending at 1 is the event of a jump before T, where 1 absorbs
    gen = validate_generator([[-5, 5], [0, 0]])
    T = 0.3
    est = mc_event_functional(
        gen, RangeSpec((0, 1), 0, 1), T, lambda L: np.ones(len(L)), 100_000, seed=13
    )
    assert abs(est.mean - (1.0 - np.exp(-5.0 * T))) < 4 * est.std_error


def test_event_probability_matches_killed_semigroup():
    gen = validate_generator([[-1, 1, 0], [0.5, -1, 0.5], [0, 1, -1]])
    T = 1.0
    est = mc_event_functional(
        gen, RangeSpec((0, 1), 0, 1), T, lambda L: np.ones(len(L)), 150_000, seed=9
    )
    # exact-range probability by inclusion-exclusion over sub-ranges
    target = killed_prob(gen, (0, 1), 0, 1, T)
    assert abs(est.mean - target) < 4 * est.std_error


def test_terminal_distribution():
    T = 1.0
    n = 50_000
    gen = TWO_STATE
    E = matrix_exponential(gen.rates, T)
    [(_, state, _)] = run_lockstep(gen, 0, n, 17, T, arrays)
    p = np.mean(state == 1)
    assert abs(p - E[0, 1]) < 4 * np.sqrt(E[0, 1] * (1 - E[0, 1]) / n)


def test_inverse_local_time_exact_level():
    gen = validate_generator([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    for h in (0.1, 1.0, 3.5):
        [(local, state, censored)] = run_lockstep(gen, 0, 1000, 5, h, arrays, site=1)
        assert local[:, 1] == pytest.approx(np.full(1000, h), abs=1e-12)
        assert np.all(state == 1)
        assert not censored.any()


def test_inverse_local_time_absorption_error():
    # a path absorbed at 1 neither reaches the level at 0 nor jumps back
    gen = validate_generator([[-1, 1], [0, 0]])
    with pytest.raises(SimulationError, match="absorbed at state index 1"):
        run_lockstep(gen, 0, 3, 1, 1.0, arrays, site=0, max_jumps=50)


def test_seed_determinism_and_worker_invariance():
    gen = validate_generator([[-1, 1, 0], [0.5, -1, 0.5], [0, 1, -1]])
    spec = RangeSpec((0, 1, 2), 0, 2)
    args = (gen, spec, 2.0, lambda L: L[:, 1])
    a = mc_event_functional(*args, n_paths=150_000, seed=100, workers=1)
    b = mc_event_functional(*args, n_paths=150_000, seed=100, workers=1)
    c = mc_event_functional(*args, n_paths=150_000, seed=100, workers=4)
    assert a.mean == b.mean == c.mean
    assert a.std_error == c.std_error
    d = mc_event_functional(*args, n_paths=150_000, seed=101, workers=1)
    assert d.mean != a.mean


def test_zero_accepted_flag():
    # range includes an unreachable state
    gen = validate_generator([[-1, 1, 0], [1, -1, 0], [0, 1, -1]])
    est = mc_event_functional(
        gen, RangeSpec((0, 2), 0, 2), 1.0, lambda L: np.ones(len(L)), 1000, seed=0
    )
    assert est.zero_accepted
    assert est.mean == 0.0


def _rounding_chains():
    """2,000 seeded 3-state chains, some of whose jump rows sum to just
    below 1, and one with an absorbing state."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        B = rng.uniform(0.05, 1.0, size=(3, 3))
        np.fill_diagonal(B, 0.0)
        yield validate_generator(B - np.diag(B.sum(axis=1)))
    yield validate_generator([[-1, 0.5, 0.5], [0.25, -0.25, 0], [0, 0, 0]])


def test_jump_table_rows_are_the_real_jumps():
    short = False
    for gen in _rounding_chains():
        exit_rates, targets, cum = gen.jump_table
        off = gen.off_diagonal()
        degree = (off > 0).sum(axis=1)
        assert targets.shape[1] == degree.max()
        for s in range(gen.n_states):
            live = np.isfinite(cum[s])
            assert live.sum() == degree[s]
            assert np.all(off[s, targets[s, live]] > 0)
            if degree[s]:
                assert cum[s, live][-1] == 1.0
                short |= np.cumsum(off[s] / exit_rates[s])[-1] < 1.0
    # the rounding guard was exercised
    assert short


@pytest.mark.parametrize("n", [3, 4, 5])
def test_jump_table_matches_dense_lookup(n):
    rng = np.random.default_rng(n)
    B = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.8)
    np.fill_diagonal(B, 0.0)
    for gen in (validate_generator(B - np.diag(B.sum(axis=1))), box_srw(2, 3)):
        exit_rates, targets, cum = gen.jump_table
        off = gen.off_diagonal()
        for s in np.flatnonzero(exit_rates > 0):
            dense = np.cumsum(off[s] / exit_rates[s])
            # seeded uniforms, and the steps of the dense row themselves
            u = np.concatenate([rng.random(100_000), dense])
            u = u[u < dense[-1]]
            picked = targets[s, (u[:, None] >= cum[s]).sum(axis=1)]
            # the first column whose dense cumulative value exceeds u
            assert np.array_equal(picked, np.searchsorted(dense, u, side="right"))


def test_jump_table_built_once_per_generator():
    gen = box_srw(2, 3)
    run_lockstep(gen, (0, 0), 100, 1, 0.5, arrays)
    table = gen.jump_table
    run_lockstep(gen, (0, 0), 100, 2, 0.5, arrays)
    assert gen.jump_table is table
    assert not any(arr.flags.writeable for arr in table)


def test_box_estimate_is_pinned():
    # the seeded count of the lookup against dense cumulative rows, bit for
    # bit: the table picks the same jumps.  The event is the exact range
    # {(0, 0), (1, 0)} ending at (1, 0), found by rejecting the box's paths
    gen = box_srw(2, 3)
    range_idx, end_idx = gen.indices([(0, 0), (1, 0)]), gen.index((1, 0))

    def accepted(local, state, _censored):
        inside = np.all(local[:, range_idx] > 0, axis=1)
        outside = np.delete(local, range_idx, axis=1).sum(axis=1)
        return int(((state == end_idx) & inside & (outside == 0)).sum())

    [n_accepted] = run_lockstep(gen, (0, 0), 20_000, 7, 0.5, accepted)
    assert (n_accepted, n_accepted / 20_000) == (1404, 0.0702)


SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))


@pytest.mark.parametrize("spec, T", [
    (RangeSpec(SQUARE[:2], (0, 0), (1, 0)), 0.5),
    (RangeSpec(SQUARE, (0, 0), (1, 1)), 5.0),
    (RangeSpec(SQUARE, (0, 0), (1, 1)), 20.0),
])
def test_weighted_paths_match_exact_range_probability(spec, T):
    # on the 441-state box the range's paths are weighted by the chance of
    # not leaving it: the square's event has probability 1e-5 at T = 5 and
    # 1e-18 at T = 20, which no rejection of exits would ever sample
    box = box_srw(2, 10)
    est = mc_event_functional(box, spec, T, lambda L: np.ones(len(L)), 200_000, seed=0)
    assert abs(est.mean - range_exact_prob(box, spec, T)) < 4 * est.std_error


def test_range_of_every_state_is_pinned():
    # no rate leaves a range that holds every state, so its paths weigh 1
    # and the estimate is the rejection estimator's, bit for bit
    gen = validate_generator([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    est = mc_event_functional(gen, RangeSpec((0, 1, 2), 0, 1), 1.5, lambda L: L[:, 0],
                              100_000, seed=404, workers=2)
    assert (est.mean, est.std_error, est.n_accepted) == (
        0.12017134912371988, 0.0008639346959940401, 22355)


@pytest.mark.parametrize("n_paths", [0, -5])
def test_path_counts_below_one_rejected(n_paths):
    with pytest.raises(ValueError, match="at least one path"):
        run_lockstep(TWO_STATE, 0, n_paths, 0, 1.0, arrays)
    with pytest.raises(ValueError, match="at least one path"):
        mc_event_functional(TWO_STATE, RangeSpec((0, 1), 0, 1), 1.0,
                            lambda L: np.ones(len(L)), n_paths, seed=0)


@pytest.mark.parametrize("limit", [0.0, -1.0, np.nan, np.inf])
def test_limit_must_be_positive_and_finite(limit):
    # no path ever reaches a nan or infinite limit, and one of 0 or less
    # would give an empty path
    for site in (None, 1):
        with pytest.raises(ValueError, match="must be positive and finite"):
            run_lockstep(TWO_STATE, 0, 10, 0, limit, arrays, site=site)
    with pytest.raises(ValueError, match="must be positive and finite"):
        mc_event_functional(TWO_STATE, RangeSpec((0, 1), 0, 1), limit,
                            lambda L: np.ones(len(L)), 10, seed=0)


# Many calls of 300 paths each: with few paths per chunk the engine takes
# steps of many jumps, so these check the blocked steps against oracles
# that do not run the engine.
SMALL_CALLS, SMALL_PATHS = 300, 300
SKEWED = validate_generator([[-1.5, 1.0, 0.5], [0.25, -1.0, 0.75], [1.5, 0.5, -2.0]])


def _small_calls(gen, limit, site=None):
    parts = [run_lockstep(gen, 0, SMALL_PATHS, seed, limit, arrays, site=site)[0]
             for seed in range(SMALL_CALLS)]
    local, state, censored = (np.concatenate(x) for x in zip(*parts))
    assert not censored.any()
    return local, state


def test_blocked_steps_terminal_law_and_occupation():
    T = 3.0
    local, state = _small_calls(SKEWED, T)
    n = len(state)
    P = matrix_exponential(SKEWED.rates, T)[0]
    for j in range(3):
        p = np.mean(state == j)
        assert abs(p - P[j]) < 4 * np.sqrt(P[j] * (1 - P[j]) / n)
    # int_0^T e^{tQ} dt is the top-right block of exp(T [[Q, I], [0, 0]])
    Z = np.zeros((6, 6))
    Z[:3, :3], Z[:3, 3:] = SKEWED.rates, np.eye(3)
    occupation = matrix_exponential(Z, T)[0, 3:]
    assert local[:, :3].sum(axis=1) == pytest.approx(np.full(n, T), abs=1e-12)
    for x in range(3):
        L = local[:, x]
        assert abs(L.mean() - occupation[x]) < 4 * L.std() / np.sqrt(n)


def test_blocked_steps_inverse_local_time_occupation():
    # from the site b, E L_x(tau_h) = h pi_x / pi_b with pi the stationary law
    h, b = 2.0, 0
    A = np.vstack([SKEWED.rates.T[:-1], np.ones(3)])
    pi = np.linalg.solve(A, [0.0, 0.0, 1.0])
    local, state = _small_calls(SKEWED, h, site=b)
    assert np.all(state == b)
    assert local[:, b] == pytest.approx(np.full(len(state), h), abs=1e-12)
    for x in (1, 2):
        L = local[:, x]
        assert abs(L.mean() - h * pi[x] / pi[b]) < 4 * L.std() / np.sqrt(len(L))


@pytest.mark.parametrize("n_paths", [7, 1000])
def test_block_boundaries_at_the_jump_cap(n_paths):
    # the cycle 0 -> 1 -> 2 -> 0 never reaches the site 3, so every path
    # makes exactly max_jumps jumps, whatever blocks the engine takes
    gen = validate_generator([[-1, 1, 0, 0], [0, -1, 1, 0], [1, 0, -1, 0], [1, 0, 0, -1]])
    for max_jumps in range(1, 41):
        [(local, state, censored)] = run_lockstep(gen, 0, n_paths, max_jumps, 1.0, arrays,
                                                  site=3, max_jumps=max_jumps)
        assert censored.all()
        assert np.all(state == max_jumps % 3)
        assert np.all(local[:, 3] == 0.0)
        # one whole hold per jump made: the final state is not held yet
        visited = min(max_jumps, 3)
        assert np.all(local[:, :visited] > 0) and np.all(local[:, visited:3] == 0)


def test_absorption_inside_a_block():
    # 0 -> 1 -> ... -> 7, absorbing at 7, off the site 0: the engine steps
    # 1, 1, 2 and 4 jumps, so state 7 is entered on the last row of a block
    n = 8
    A = np.eye(n, k=1) - np.diag(np.r_[np.ones(n - 1), 0.0])
    gen = validate_generator(A)
    with pytest.raises(SimulationError, match="absorbed at state index 7"):
        run_lockstep(gen, 0, 5, 0, 1e9, arrays, site=0)


def test_rows_after_the_stop_are_not_checked():
    # 1 -> 2 -> ... -> 5 with the site 5 absorbing and an unreachable
    # absorbing state 0 off the site: the path stops on the first row of a
    # four-jump block, and the rows after it are never part of the path
    n = 6
    A = np.eye(n, k=1)
    A[0, 1] = 0.0
    A -= np.diag(A.sum(axis=1))
    gen = validate_generator(A)
    [(local, state, censored)] = run_lockstep(gen, 1, 5, 0, 1.0, arrays, site=5)
    assert np.all(state == 5) and not censored.any()
    assert np.all(local[:, 5] == 1.0) and np.all(local[:, 0] == 0.0)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("n_paths, seed, want", [
    (100, 7, "0c29ceda4d05328a"),
    (300, 20061, "7d9f9543d0638dfb"),
])
def test_walk_records_are_pinned(n_paths, seed, want):
    # the benchmark's walk and battery batches, pinned before the engine
    # stopped its blocks at the last path's stop: the same jumps, bit for bit
    batch = simulate_profiles(3, 1.0, n_paths, seed, depth=12)
    assert batch.n_censored == 0
    assert _digest(batch.records) == want


@pytest.mark.parametrize("args, kwargs, n_censored, want", [
    ((0, 300, 11, 2.0), dict(site=0), 0, "07f585baabd0d3ea"),
    ((0, 300, 12, 3.0), {}, 0, "9b7ddfeb2cbebfc1"),
    ((0, 300, 13, 40.0), dict(site=0, max_jumps=150), 267, "80a0c04bb3578e61"),
], ids=["site", "horizon", "jump-cap"])
def test_skewed_chain_runs_are_pinned(args, kwargs, n_censored, want):
    [(local, state, censored)] = run_lockstep(SKEWED, *args, arrays, **kwargs)
    assert int(censored.sum()) == n_censored
    assert _digest(local, state.astype(np.int64), censored) == want


# 0.7 + 0.2 + 0.1 rounds to 1.0000000000000002, so the star's first jump
# row reads [0.7, 0.9, 1.0000000000000002, 1.0]: its probabilities span
# 1e-17, and the row is sorted only up to the 1.0 set against rounding
STAR = validate_generator([
    [-(1.0 + 1e-17), 0.7, 0.2, 0.1, 1e-17],
    [1, -1, 0, 0, 0], [1, 0, -1, 0, 0], [1, 0, 0, -1, 0], [1, 0, 0, 0, -1],
])
CYCLE = validate_generator([[-1, 1, 0, 0], [0, -1, 1, 0], [1, 0, -1, 0], [1, 0, 0, -1]])


def test_star_jump_row_is_unsorted_at_its_end():
    cum = STAR.jump_table[2][0]
    assert cum[-2] > 1.0 == cum[-1]


def _runs(case):
    if case == "walk":
        return [(simulate_profiles(3, 1.0, 100, 7, depth=12).records,)]
    if case == "jump-cap":
        # the cases of test_block_boundaries_at_the_jump_cap
        return [run_lockstep(CYCLE, 0, n, cap, 1.0, arrays, site=3, max_jumps=cap)[0]
                for n in (7, 1000) for cap in range(1, 41)]
    gen, start, limit, site = {
        "skewed-site": (SKEWED, 0, 2.0, 0),
        "skewed-horizon": (SKEWED, 0, 3.0, None),
        "box": (box_srw(2, 3), (0, 0), 4.0, None),
        "star-site": (STAR, 0, 20.0, 0),
        "star-horizon": (STAR, 0, 10.0, None),
    }[case]
    return [run_lockstep(gen, start, n, seed, limit, arrays, site=site)[0]
            for n, seed in ((1, 1), (30, 2), (300, 3))]


@pytest.mark.parametrize("case", ["walk", "jump-cap", "skewed-site", "skewed-horizon",
                                  "box", "star-site", "star-horizon"])
def test_fills_and_cuts_give_the_same_arrays(monkeypatch, case):
    # every row filled by numpy's lookup or by bisect in Python, with the
    # block's clock tested after every row or never: the same jumps
    results = []
    for few_paths, check_rows in ((0, BLOCK), (BLOCK, BLOCK), (0, 1), (BLOCK, 1)):
        monkeypatch.setattr(simulate, "_FEW_PATHS", few_paths)
        monkeypatch.setattr(simulate, "_CHECK_ROWS", check_rows)
        results.append(_runs(case))
    for other in results[1:]:
        for run, ref in zip(other, results[0]):
            for a, b in zip(run, ref):
                assert a.dtype == b.dtype and np.array_equal(a, b)
