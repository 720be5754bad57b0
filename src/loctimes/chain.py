"""Generators (Q-matrices) and ranges.

A generator is a real square matrix with nonnegative off-diagonal rates and
zero row sums.  State labels are arbitrary hashables; internally everything
is mapped to contiguous indices, and all outputs report the original labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, Sequence

import numpy as np

ROW_SUM_RTOL = 1e-12

__all__ = [
    "Generator",
    "GeneratorError",
    "RangeSpec",
    "as_times",
    "validate_generator",
    "jump_rate_bound",
    "box_srw",
    "load_generator",
]


class GeneratorError(ValueError):
    """Raised when a rate matrix is not a valid conservative generator."""


@dataclass(frozen=True)
class Generator:
    """A conservative generator on a finite ordered state set.

    Use :func:`validate_generator` (or the ``from_*`` helpers) instead of
    constructing instances directly; construction does not re-validate.
    """

    states: tuple[Hashable, ...]
    rates: np.ndarray  # shape (n, n), read-only

    def __post_init__(self):
        rates = np.array(self.rates, dtype=float)
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.states)}
        )

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index(self, state: Hashable) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise KeyError(f"unknown state {state!r}") from None

    def indices(self, states: Sequence[Hashable]) -> np.ndarray:
        return np.array([self.index(s) for s in states], dtype=int)

    def off_diagonal(self) -> np.ndarray:
        """The jump-rate part of the generator (diagonal zeroed)."""
        B = self.rates.copy()
        np.fill_diagonal(B, 0.0)
        return B

    def exit_rates(self) -> np.ndarray:
        return -np.diag(self.rates)

    @cached_property
    def jump_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exit rates and padded per-state jump tables, built once from the
        nonzero off-diagonal rates and read-only.

        Row s of ``targets`` lists the states s jumps to, in state order, and
        row s of ``cum`` the cumulative jump probability there, the last one
        set to 1.0 against rounding; rows are padded to the largest
        out-degree, ``cum`` with +inf.  A jump from s with uniform u in
        [0, 1) goes to ``targets[s, (u >= cum[s]).sum()]``, the first target
        whose cumulative probability exceeds u.  The rates cannot change, so
        the stored table cannot go stale.
        """
        off, exit_rates = self.off_diagonal(), self.exit_rates()
        src, dst = np.nonzero(off)  # row-major: each row's targets in state order
        degree = np.bincount(src, minlength=self.n_states)
        slot = np.arange(len(src)) - np.repeat(np.cumsum(degree) - degree, degree)
        width = int(degree.max())
        targets = np.zeros((self.n_states, width), dtype=np.intp)
        targets[src, slot] = dst
        cum = np.zeros((self.n_states, width))
        cum[src, slot] = off[src, dst] / exit_rates[src]
        # adding the dense row's zeros between targets is exact, so this is
        # the dense cumulative row at each target
        cum = np.cumsum(cum, axis=1)
        cum[np.arange(width) >= degree[:, None]] = np.inf
        # the lookup must never fall off the end of a row
        moves = degree > 0
        cum[moves, degree[moves] - 1] = 1.0
        for arr in (exit_rates, targets, cum):
            arr.setflags(write=False)
        return exit_rates, targets, cum

    def submatrix(self, states: Sequence[Hashable]) -> np.ndarray:
        idx = self.indices(states)
        return self.rates[np.ix_(idx, idx)]


@dataclass(frozen=True)
class RangeSpec:
    """A finite range with marked entry and exit states."""

    range: tuple[Hashable, ...]
    start: Hashable
    end: Hashable

    def __post_init__(self):
        object.__setattr__(self, "range", tuple(self.range))
        if not self.range:
            raise ValueError("range must be nonempty")
        if len(set(self.range)) != len(self.range):
            raise ValueError("range contains duplicate states")
        if self.start not in self.range:
            raise ValueError(f"start state {self.start!r} not in range")
        if self.end not in self.range:
            raise ValueError(f"end state {self.end!r} not in range")

    @property
    def size(self) -> int:
        return len(self.range)


def as_times(spec: RangeSpec, l) -> np.ndarray:
    """Coerce a dict keyed by site, or a sequence in range order, to a
    positive, finite array ordered by the range."""
    if isinstance(l, Mapping):
        if set(l) != set(spec.range):
            raise ValueError("local-time support does not match the range")
        l = [l[s] for s in spec.range]
    arr = np.asarray(l, dtype=float)
    if arr.shape != (spec.size,):
        raise ValueError(f"expected {spec.size} local times, got shape {arr.shape}")
    if not np.all((arr > 0) & (arr < np.inf)):
        raise ValueError("all local times must be positive and finite")
    return arr


def validate_generator(rates, states: Sequence[Hashable] | None = None) -> Generator:
    """Validate a rate matrix and wrap it as a :class:`Generator`.

    Rejects non-square input, matrices smaller than 2x2, negative
    off-diagonal entries, and rows whose sum deviates from zero by more than
    ``1e-12`` relative to the largest magnitude in the row.
    """
    rates = np.array(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise GeneratorError(f"rate matrix must be square, got shape {rates.shape}")
    n = rates.shape[0]
    if n < 2:
        raise GeneratorError("a generator needs at least 2 states")
    if not np.all(np.isfinite(rates)):
        raise GeneratorError("rate matrix contains non-finite entries")
    off = rates.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        i, j = np.argwhere(off < 0)[0]
        raise GeneratorError(f"negative off-diagonal rate at ({i}, {j})")
    row_sums = rates.sum(axis=1)
    scale = np.maximum(np.abs(rates).max(axis=1), 1.0)
    bad = np.abs(row_sums) > ROW_SUM_RTOL * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        raise GeneratorError(f"row {i} sums to {row_sums[i]:.3e}, not 0")
    # snap row sums to exactly zero so downstream identities are exact
    np.fill_diagonal(off, -off.sum(axis=1))
    if states is None:
        states = range(n)
    states = tuple(states)
    if len(states) != n:
        raise GeneratorError("number of state labels does not match matrix size")
    return Generator(states=states, rates=off)


def jump_rate_bound(gen: Generator, range_states: Sequence[Hashable]) -> float:
    """Largest absolute row or column sum of the jump rates within the
    range, floored at 1.

    This is the constant that controls the Hadamard bounds on the cofactor
    determinants in the density estimates.
    """
    sub = tuple(range_states)
    if not sub:
        raise ValueError("range must be nonempty")
    absB = np.abs(gen.submatrix(sub))
    np.fill_diagonal(absB, 0.0)
    return float(max(absB.sum(axis=1).max(), absB.sum(axis=0).max(), 1.0))


def box_srw(dim: int, radius: int, rate: float = 1.0) -> Generator:
    """Simple random walk on the box ``[-radius, radius]^dim`` with the
    given rate to each lattice neighbor (jumps off the box are dropped, so
    boundary rows have smaller exit rates).

    States are integers for ``dim == 1`` and coordinate tuples otherwise.
    """
    if dim < 1 or radius < 0:
        raise ValueError("need dim >= 1 and radius >= 0")
    axis = range(-radius, radius + 1)
    if dim == 1:
        sites = [(x,) for x in axis]
        labels = [x for x in axis]
    else:
        sites = list(itertools.product(axis, repeat=dim))
        labels = sites
    pos = {s: i for i, s in enumerate(sites)}
    n = len(sites)
    A = np.zeros((n, n))
    for s, i in pos.items():
        for d in range(dim):
            for step in (-1, 1):
                t = list(s)
                t[d] += step
                j = pos.get(tuple(t))
                if j is not None:
                    A[i, j] = rate
    np.fill_diagonal(A, -A.sum(axis=1))
    return validate_generator(A, states=labels)


def load_generator(path) -> Generator:
    """Load a generator from a plain text file of whitespace-separated rows,
    with states 0 .. n-1."""
    return validate_generator(np.loadtxt(path, dtype=float, ndmin=2))
