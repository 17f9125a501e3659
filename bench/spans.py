"""In-memory spans around the benchmark's calls into gaudin.

A span is one row ``(name, start, end, parent, task)``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``task`` the id of the
task the span belongs to.  Rows stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Calls straight through; the untraced path of the same task code."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records a span around every call; ``task`` tags the spans opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        """One JSON row per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations.

    A Tracer is a single stack, so children run one after another inside
    their parent and never overlap.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def by_name(spans) -> dict[str, tuple[float, int]]:
    """Self seconds and call count per span name."""
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name][0] += own
        totals[name][1] += 1
    return {name: (secs, calls) for name, (secs, calls) in totals.items()}
