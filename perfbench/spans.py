"""In-memory spans recorded around calls into the package's public functions.

Nothing inside ``src/`` is instrumented: the traced job replaces module
attributes and target callables with timing wrappers from this file, and
restores them afterwards.  A span records its name, duration, the part of
that duration not covered by child spans (self time), its depth and the
name of the span that caused it.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    dur: float
    self_dur: float
    depth: int
    parent: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, child seconds]

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        self.counts[name] += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append(Span(name, dur, dur - frame[1], len(self._stack), parent))

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around every call; ``on_result`` sees each result."""

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.dur for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.spans if s.name == name)

    def top_level_seconds(self) -> float:
        return sum(s.dur for s in self.spans if s.depth == 0)


@contextlib.contextmanager
def patched(obj, attrs: dict):
    """Set attributes on ``obj`` for the duration of the block."""
    saved = {k: getattr(obj, k) for k in attrs}
    for k, v in attrs.items():
        setattr(obj, k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(obj, k, v)
