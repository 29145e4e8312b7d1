"""Spans recorded from outside the program, around public layer functions.

A Tracer rebinds module attributes (for example `fedsparse.model.backward`)
to wrappers that record one span per call: name, start, end, parent span
and run id. Nothing in the program changes; the original attributes are
put back when the `patch` block exits. Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span among its run's spans
    run: int


def span_name(fn) -> str:
    """`<layer>.<function>`, the layer being the module that defines fn."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans and counters for one run of the program."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, count=None):
        """Return fn wrapped in a span; count(counts, args, result) may add counters."""
        name = span_name(fn)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.run)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def patch(self, targets, counters):
        """Rebind each (module, attribute) in targets to a traced wrapper."""
        saved = [(module, attr, getattr(module, attr)) for module, attr in targets]
        try:
            for module, attr, fn in saved:
                setattr(module, attr, self.wrap(fn, counters.get(span_name(fn))))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name: `<name>.calls`, `<name>.s` (inclusive) and `<name>.self_s`."""
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.s"] += span.end - span.start
        totals[f"{span.name}.self_s"] += own
    return dict(totals)


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
