import numpy as np
import pytest

from loctimes.chain import RangeSpec, validate_generator
from loctimes.oracles import killed_prob, matrix_exponential
from loctimes.simulate import SimulationError, mc_event_functional, run_lockstep

TWO_STATE = validate_generator([[-1, 1], [1, -1]])


def arrays(local, state, censored):
    return local, state, censored


# E[time spent at the start site of the symmetric two-state chain up to T]:
# occupation integral of the semigroup diagonal
def expected_local_time_at_start(T):
    return T / 2.0 + (1.0 - np.exp(-2.0 * T)) / 4.0


def test_local_times_partition_horizon():
    gen = validate_generator([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    [(local, state, censored)] = run_lockstep(gen, 0, 20, 0, 3.0, (0, 1, 2), arrays)
    assert local.sum(axis=1) == pytest.approx(np.full(20, 3.0), abs=1e-12)
    assert np.all(local[:, -1] == 0.0)
    # the last holding interval is spent at the final state
    assert np.all(local[np.arange(20), state] > 0)
    assert not censored.any()


def test_absorbing_state_holds():
    gen = validate_generator([[-5, 5], [0, 0]])
    [(local, state, censored)] = run_lockstep(gen, 0, 1000, 1, 50.0, (0, 1), arrays)
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
    T = 1.5
    est = mc_event_functional(
        TWO_STATE,
        RangeSpec((0,), 0, 0),
        T,
        lambda L: np.ones(len(L)),
        n_paths=100_000,
        seed=3,
    )
    assert abs(est.mean - np.exp(-T)) < 4 * est.std_error


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
    [(_, state, _)] = run_lockstep(gen, 0, n, 17, T, (0, 1), arrays)
    p = np.mean(state == 1)
    assert abs(p - E[0, 1]) < 4 * np.sqrt(E[0, 1] * (1 - E[0, 1]) / n)


def test_inverse_local_time_exact_level():
    gen = validate_generator([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    for h in (0.1, 1.0, 3.5):
        [(local, state, censored)] = run_lockstep(gen, 0, 1000, 5, h, (0, 1, 2), arrays, site=1)
        assert local[:, 1] == pytest.approx(np.full(1000, h), abs=1e-12)
        assert np.all(state == 1)
        assert not censored.any()


def test_inverse_local_time_absorption_error():
    # a path absorbed at 1 neither reaches the level at 0 nor jumps back
    gen = validate_generator([[-1, 1], [0, 0]])
    with pytest.raises(SimulationError, match="absorbed at state index 1"):
        run_lockstep(gen, 0, 3, 1, 1.0, (0, 1), arrays, site=0, max_jumps=50)


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
