"""A fixed reference computation that scales the benchmark's rates.

The speed of a shared 2-vCPU host drifts from minute to minute, and the
same pure-Python loop can take twice as long in one minute as in the
next.  Medians over the rounds of a run absorb short bursts but not that
drift.

A worker therefore times this reference before its first round and after
every round, for about ``REFERENCE_SHARE`` of the round (at least once),
and keeps the median time.  Each round's rates are multiplied, and its
duration divided, by ``scale`` = (mean of the reference times on either
side of the round) / ``NOMINAL_S``: the figure the round would show on a
host that runs the reference in ``NOMINAL_S``.  The reference is the
benchmark's own code, shaped like the library's work (an interpreter
loop, numpy calls on small arrays, and an exp over a 16 MB array between
two BLAS products), so a change to the library moves the scaled figures
in full, while a change of the host's speed mostly cancels out.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import clock

NOMINAL_S = 0.030  # seconds; about the median reference time on the machine of the README's figures


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.block = rng.uniform(0.5, 2.0, size=(2048, 4))
        self.exponents = rng.uniform(0.0, 0.5, size=(4, 1024))
        self.weights = rng.uniform(size=1024)
        self.small = np.arange(64.0)

    def sample(self, seconds: float) -> float:
        """Median time of the reference, run at least once and for at least
        about ``seconds`` in all."""
        times = [self.once()]
        while sum(times) < seconds:
            times.append(self.once())
        return statistics.median(times)

    def once(self) -> float:
        """Seconds the reference takes now."""
        t = clock()
        s = 0
        for i in range(60_000):
            s += i * i % 7
        a = self.small
        for _ in range(2_000):
            a = np.sqrt(a * a + 1.0) - 1.0
            a.sum()
        P = np.log(self.block) @ self.exponents
        np.exp(P, out=P)
        P @ self.weights
        return clock() - t
