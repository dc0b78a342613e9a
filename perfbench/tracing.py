"""In-memory spans recorded around calls into groupnb's layers.

A span has a name ("<layer>.<function>"), start and end in perf_counter
nanoseconds, the index of its parent span, and free-form attributes
(sample counts, byte counts). Spans stay in memory while the benchmark
runs and are written out once, when it ends. A layer's self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: int, parent: int | None, attrs: dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Records one span per ``with tracer.span(...)`` block."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter_ns(), parent, attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def self_times_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        own = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration_ns
        return own

    def by_name(self) -> dict[str, list[tuple[Span, int]]]:
        """(span, self time ns) pairs grouped by span name."""
        out: dict[str, list[tuple[Span, int]]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_times_ns()):
            out[span.name].append((span, own))
        return out

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "start_ns": s.start, "end_ns": s.end, "parent": s.parent,
             "attrs": s.attrs}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(rows, fp)


class _NullSpan:
    """Stands in for a Span when tracing is off; attributes set on it are dropped."""

    attrs: dict = {}

    def __enter__(self):
        self.attrs = {}
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: ``span`` costs one object call and records nothing."""

    enabled = False

    def __init__(self):
        self._span = _NullSpan()

    def span(self, name: str, **attrs):
        return self._span


def median_self_s(spans: list[tuple[Span, int]]) -> float:
    """Median self time of one call, in seconds."""
    return statistics.median(own for _, own in spans) / 1e9


def self_ns_per_item(spans: list[tuple[Span, int]], attr: str) -> float:
    """Total self time divided by the total of an item-count attribute."""
    items = sum(span.attrs[attr] for span, _ in spans)
    return sum(own for _, own in spans) / items
