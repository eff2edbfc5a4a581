"""Spans recorded from outside the program.

The tracer wraps functions -- the benchmark's own calls, and the names a
package module binds -- so that every call leaves a span with its name,
layer, start, end and parent.  Spans stay in memory while the workload runs
and are written out once it ends.  ``restore`` puts every replaced module
binding back.
"""

from __future__ import annotations

import csv
import functools
import time


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "unit", "error", "info")

    def __init__(self, name, layer, start, parent, unit):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent  # index of the enclosing span, or None
        self.unit = unit
        self.error = False
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.unit = 0  # index of the workload unit being run
        self._stack: list[int] = []
        self._replaced: list[tuple] = []

    def wrap(self, fn, name: str, layer: str, observe=None):
        """Return fn recording one span per call; observe(result) fills span.info."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, clock(), stack[-1] if stack else None, self.unit)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.info = observe(result)
            return result

        return traced

    def replace(self, module, attr: str, layer: str, observe=None) -> str:
        """Wrap the name ``attr`` that ``module`` binds; returns the span name."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, self.wrap(original, name, layer, observe))
        self._replaced.append((module, attr, original))
        return name

    def restore(self):
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "layer", "start", "end", "parent", "unit", "error"])
            for s in self.spans:
                writer.writerow([s.name, s.layer, repr(s.start), repr(s.end),
                                 "" if s.parent is None else s.parent, s.unit, int(s.error)])


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and never overlap: their durations add up to the part
    of the parent's interval they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def has_ancestor(spans, index: int, layer: str) -> bool:
    """True when some enclosing span of spans[index] belongs to ``layer``."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False
