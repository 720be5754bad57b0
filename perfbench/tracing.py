"""Timing and span recording for the benchmark.

``Meter`` times the operations of the measured window; it is always on,
because the end-to-end metrics come from it.  ``Tracer`` records spans
(id, name, start, end, parent, round) and is on only in traced runs: it
wraps public library functions from outside, so an untraced run executes
the library exactly as a user would.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

clock = time.perf_counter


class Meter:
    """Per-round operation timings: ``rounds[r][kind] = [seconds, items, calls]``,
    with each round's duration and its host-speed scale (see ``reference``)."""

    def __init__(self):
        self.rounds: list[dict] = []
        self.round_seconds: list[float] = []
        self.scales: list[float] = []

    def start_round(self):
        self.rounds.append(defaultdict(lambda: [0.0, 0, 0]))

    def add(self, kind: str, seconds: float, items: int):
        entry = self.rounds[-1][kind]
        entry[0] += seconds
        entry[1] += items
        entry[2] += 1

    def op(self, kind: str, items: int):
        return _Op(self, kind, items)

    def calls(self) -> int:
        return sum(e[2] for r in self.rounds for e in r.values())

    def total(self, kind: str) -> tuple[float, int]:
        seconds = sum(r[kind][0] for r in self.rounds if kind in r)
        items = sum(r[kind][1] for r in self.rounds if kind in r)
        return seconds, items

    def scaled_round_seconds(self) -> list[float]:
        return [t / s for t, s in zip(self.round_seconds, self.scales)]


class _Op:
    __slots__ = ("meter", "kind", "items", "t0")

    def __init__(self, meter, kind, items):
        self.meter, self.kind, self.items = meter, kind, items

    def __enter__(self):
        self.t0 = clock()

    def __exit__(self, *exc):
        self.meter.add(self.kind, clock() - self.t0, self.items)


class Tracer:
    """In-memory span recorder.  Disabled, ``wrap`` returns its argument
    unchanged and ``instrument`` does nothing.

    Spans nest by a single stack, so they must be opened from one thread;
    the workloads pass traced callables only to single-worker calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.round = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def instrument(self, targets):
        """Replace each ``(owner, attribute, span name)`` with a traced
        wrapper; calls the library makes to its own module-level names are
        traced too."""
        if not self.enabled:
            return
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstrument(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def summary(self) -> dict:
        """Per span name: count, inclusive seconds, self seconds (duration
        minus the time covered by child spans) and the list of durations."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            agg = out.setdefault(s["name"],
                                 {"count": 0, "total": 0.0, "self": 0.0, "durations": []})
            agg["count"] += 1
            agg["total"] += dur
            agg["self"] += dur - child_time[s["id"]]
            agg["durations"].append(dur)
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = {"id": None, "name": name, "start": 0.0, "end": 0.0,
                       "parent": None, "round": tracer.round}

    def __enter__(self):
        stack = self.tracer._stack
        rec = self.record
        rec["id"] = len(self.tracer.spans)
        rec["parent"] = stack[-1] if stack else None
        self.tracer.spans.append(rec)
        stack.append(rec["id"])
        rec["start"] = clock()

    def __exit__(self, *exc):
        self.record["end"] = clock()
        self.tracer._stack.pop()
        return False
