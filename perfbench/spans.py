"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds) and
the index of the span that was open when it started.  Spans stay in memory;
the worker turns them into per-layer numbers when its job has ended.  With
tracing off, ``span`` returns a shared no-op context and ``count`` does
nothing, so the untraced job runs the same code with no bookkeeping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

_NO_SPAN = nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        """Total duration of the spans with this name, less the time their
        child spans cover.  Spans come from one thread, so children of one
        span never overlap and their durations add up."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return sum((s.duration - covered[i] for i, s in enumerate(self.spans) if s.name == name), 0.0)
