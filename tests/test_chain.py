import numpy as np
import pytest

from loctimes.chain import (
    GeneratorError,
    RangeSpec,
    box_srw,
    jump_rate_bound,
    load_generator,
    validate_generator,
)


def test_valid_symmetric_two_state():
    gen = validate_generator([[-1, 1], [1, -1]])
    assert gen.n_states == 2
    assert np.allclose(gen.rates.sum(axis=1), 0.0)


def test_absorbing_row_is_conservative():
    gen = validate_generator([[-1, 1], [0, 0]])
    assert gen.exit_rates()[1] == 0.0


def test_bad_row_sum_rejected():
    with pytest.raises(GeneratorError):
        validate_generator([[-1, 2], [1, -1]])


def test_negative_off_diagonal_rejected():
    with pytest.raises(GeneratorError):
        validate_generator([[1, -1], [1, -1]])


def test_too_small_rejected():
    with pytest.raises(GeneratorError):
        validate_generator([[0.0]])


def test_jump_rate_bound_examples():
    gen = validate_generator([[-2, 2], [3, -3]])
    assert jump_rate_bound(gen, (0, 1)) == 3.0
    # diagonal generator floors at 1
    diag = validate_generator([[0, 0], [0, 0]])
    assert jump_rate_bound(diag, (0, 1)) == 1.0


def test_jump_rate_bound_monotone_and_box():
    gen = box_srw(2, 2)
    states = gen.states
    small = jump_rate_bound(gen, states[:4])
    full = jump_rate_bound(gen, states)
    assert 1.0 <= small <= full <= 4.0  # at most 2 * dim


def test_box_srw_shapes():
    g1 = box_srw(1, 3)
    assert g1.n_states == 7
    assert g1.rates[0, 1] == 1.0
    g2 = box_srw(2, 1)
    assert g2.n_states == 9


def test_load_generator(tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("-1 1\n1 -1\n")
    gen = load_generator(path)
    assert np.allclose(gen.rates, [[-1, 1], [1, -1]])


@pytest.mark.parametrize("states, start, end, message", [
    ((), 0, 0, "range must be nonempty"),
    ((0, 1, 0), 0, 1, "duplicate"),
    ((0, 1), 2, 1, "start state 2 not in range"),
    ((0, 1), 0, 2, "end state 2 not in range"),
])
def test_range_spec_rejects(states, start, end, message):
    with pytest.raises(ValueError, match=message):
        RangeSpec(states, start, end)


@pytest.mark.parametrize("rates, labels, message", [
    ([[-1, 1, 0], [1, -1, 0]], None, "must be square"),
    ([-1, 1], None, "must be square"),
    ([[-1, 1], [np.nan, -1]], None, "non-finite"),
    ([[-np.inf, np.inf], [1, -1]], None, "non-finite"),
    ([[-1, 1], [1, -1]], ("a", "b", "c"), "number of state labels"),
])
def test_validate_generator_rejects(rates, labels, message):
    with pytest.raises(GeneratorError, match=message):
        validate_generator(rates, states=labels)


@pytest.mark.parametrize("dim, radius", [(0, 1), (1, -1)])
def test_box_srw_rejects_an_empty_box(dim, radius):
    with pytest.raises(ValueError, match="need dim >= 1 and radius >= 0"):
        box_srw(dim, radius)
