"""In-memory span recording for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into `loopsurf`;
nothing inside the package is instrumented. Each span has a name, start,
end, parent span and a group id shared by all spans of one query, mesh or
command. The very frequent ``ClosedCurve.eval`` calls are not spans: they
are counted and timed into totals on the innermost open span.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields


@dataclass
class Span:
    id: int
    parent: int | None
    group: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0      # time covered by direct child spans
    eval_calls: int = 0       # ClosedCurve.eval calls made directly in this span
    eval_points: int = 0
    eval_s: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        """Duration minus the time child spans and curve evaluations cover."""
        return self.duration - self.child_s - self.eval_s

    def to_json(self):
        return {"id": self.id, "parent": self.parent, "group": self.group,
                "name": self.name, "start": self.start, "end": self.end,
                "attrs": self.attrs, "eval_calls": self.eval_calls,
                "eval_points": self.eval_points, "eval_s": self.eval_s}


class Tracer:
    """Records nested spans in memory; `spans` is in start order."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, group, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent.id if parent else None, group, name,
                 time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    def add_eval(self, points, seconds):
        if self._stack:
            s = self._stack[-1]
            s.eval_calls += 1
            s.eval_points += points
            s.eval_s += seconds


class NullTracer:
    """Tracing off: spans cost one no-op context manager each."""

    enabled = False
    spans = ()

    def span(self, name, group, **attrs):
        return nullcontext()


@functools.cache
def _counting_class(base):
    @dataclass(frozen=True, eq=False)
    class CountingCurve(base):
        """ClosedCurve whose every eval call is timed and counted."""

        tracer: object = None

        def eval(self, t):
            start = time.perf_counter()
            out = base.eval(self, t)
            self.tracer.add_eval(out.size // 2, time.perf_counter() - start)
            return out

    return CountingCurve


def counting_curve(curve, tracer):
    """Copy of `curve` (a ClosedCurve) that reports each eval to `tracer`.

    The subclass is built from the curve's own class, so it matches the
    `loopsurf` module objects the curve came from.
    """
    values = {f.name: getattr(curve, f.name) for f in fields(curve)}
    return _counting_class(type(curve))(**values, tracer=tracer)
