"""In-memory span recorder for the traced benchmark passes.

Spans are recorded from the benchmark's own code around each public call
into the package: (name, start, end, parent), with parent the index of the
enclosing span or -1.  The first span of a request is its root, so spans of
one request share that root.  Nothing is written until `write` is called at
the end of a pass.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """Spans as parallel lists of plain values: recording allocates no
    container objects, so the garbage collector never runs longer because
    of the trace and bills that time to whichever call is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open = -1

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span called `name` and return its result."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open)
        self.starts.append(0.0)
        self.ends.append(0.0)
        outer, self._open = self._open, index
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open = outer
            self.starts[index] = start
            self.ends[index] = end

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct children; children of one span
        never overlap, since the benchmark is single-threaded)."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += d
        out: dict[str, dict[str, float]] = {}
        for name, d, c in zip(self.names, durations, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - c
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line: name, start, end,
        parent index (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(span) + "\n")


class NullTracer:
    """Same interface, records nothing: the untraced side of an overhead
    comparison."""

    def call(self, name: str, fn, *args):
        return fn(*args)
