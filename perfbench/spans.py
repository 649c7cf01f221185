"""In-memory spans recorded around calls into the program, and their arithmetic.

A span is opened each time a wrapped module attribute is called; the span open
at that moment is its parent.  Spans stay in memory until the run ends.  The
tracer assumes the traced code calls the wrapped attributes from one thread,
which holds for the single-thread runs it is used on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._open = []
        self._patched = []

    @contextmanager
    def span(self, name):
        rec = Span(len(self.spans), self._open[-1] if self._open else None, name, time.perf_counter(), float("nan"))
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` by a callable that records one span per call.

        ``on_result(tracer, args, kwargs, result)`` derives counters; it runs in
        a ``bench.count`` span of its own, so its cost stays out of the self
        time of every program span.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                out = original(*args, **kwargs)
            if on_result is not None:
                with self.span("bench.count"):
                    on_result(self, args, kwargs, out)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        """Put every wrapped attribute back, most recent first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def to_json(self):
        return {"run_id": self.run_id, "spans": [asdict(s) for s in self.spans], "counts": self.counts}


def self_time(spans, span):
    """Duration of ``span`` minus the part of it that its direct children cover."""
    cuts = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in spans
        if c.parent == span.id
    )
    covered, reach = 0.0, span.start
    for lo, hi in cuts:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def total_time(spans, name):
    """Summed duration of every span called ``name`` (0 when there is none)."""
    return sum(s.duration for s in spans if s.name == name)


def total_self_time(spans, name):
    """Summed self time of every span called ``name`` (0 when there is none)."""
    return sum(self_time(spans, s) for s in spans if s.name == name)


def ratio(part, base):
    """``part / base``, or 0.0 when the base is 0 (the layer did no work)."""
    return part / base if base else 0.0
