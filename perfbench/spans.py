"""In-memory span recording for the benchmark's traced runs.

A span is one call into a pipeline layer, timed from outside at the
layer's public entry point: name, start, end and the span that was open
when it began.  Counts are recorded next to the spans, at the same layer
boundaries.  Everything stays in memory until the process ends and is
then handed back as one JSON-ready dict.

With tracing off only the root span and the named marks are timed (the
end-to-end metrics need them); :meth:`SpanLog.span` then returns a
shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional

_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("log", "name", "start", "end", "parent")

    def __init__(self, log: "SpanLog", name: str) -> None:
        self.log = log
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent: Optional[int] = None

    def __enter__(self) -> "_Span":
        log = self.log
        self.parent = log._open[-1] if log._open else None
        log._open.append(len(log.spans))
        log.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.log._open.pop()


class SpanLog:
    """Spans, marks and counts of one measured process."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: List[_Span] = []
        self.marks: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []

    def root(self, name: str) -> _Span:
        """A span that is timed whether or not tracing is on."""
        return _Span(self, name)

    def span(self, name: str):
        return _Span(self, name) if self.traced else _NO_SPAN

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value

    def duration(self, name: str) -> float:
        """Wall time of the first span called *name*."""
        for span in self.spans:
            if span.name == name:
                return span.end - span.start
        raise KeyError(name)

    def since(self, root: str, mark: str) -> float:
        """Time from the start of span *root* to mark *mark*."""
        for span in self.spans:
            if span.name == root:
                return self.marks[mark] - span.start
        raise KeyError(root)

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its direct
        children cover (children of one parent never overlap here —
        the pipeline is serial)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span.end - span.start - covered[index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def to_json(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [
                {
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                }
                for span in self.spans
            ],
            "counts": dict(self.counts),
        }
