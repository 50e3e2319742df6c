"""In-memory span recorder that wraps daviesgap's public functions from outside.

A wrapper replaces a module attribute (the name a caller looks up at call
time) with a function that records one span -- name, start, end, parent --
around the original call.  Spans stay in a list until the run ends; nothing
is written while the workload runs.  The time a wrapper spends on its own
bookkeeping, outside the wrapped call, is summed as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root
    op: int = -1              # operation sample this span belongs to
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a tree of spans per operation; not thread-safe (one client)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               op=self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def begin_op(self, op: int) -> int:
        """Open the root span of one operation sample."""
        self._op = op
        return self.open("op")

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper; a missing name is skipped.

        ``on_result(result, info)`` may store counts taken from the return
        value in the span's ``info`` dict.  It runs outside the span.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            index = tracer.open(name)
            t_call = tracer.spans[index].start
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if on_result is not None:
                # a changed return type loses the count, not the operation
                with contextlib.suppress(AttributeError, TypeError):
                    on_result(result, span.info)
            tracer.overhead_s += (t_call - t_in) + (time.perf_counter() - span.end)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Span duration minus the part its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out
