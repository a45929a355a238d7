"""In-memory span and counter recording for the traced benchmark run.

Spans carry a name, start, end, parent span and request id; counters
and leaf timers are recorded at the same boundaries.  Nothing is
written until the run ends (:meth:`Tracer.dump`).  :class:`NullTracer`
has the same interface and records nothing, so workload code calls the
tracer unconditionally and the untraced run pays almost nothing.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Hashable, Iterator, List, Optional

from perfbench.stats import self_times


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: Optional[int]
    request: Optional[str]
    thread: str
    end: float = 0.0
    #: Seconds spent in leaf timers called directly under this span.
    leaf: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The untraced run's tracer: every call is a no-op."""

    enabled = False

    def span(self, name: str, request: Optional[str] = None, adopt: Any = None):
        return nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer:
    """Records spans, counters and leaf timers from any thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.leaf_seconds: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        #: Parents waiting for a child that starts on another thread.
        self._adopted: Dict[Hashable, Span] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        return any(span.name == name for span in self._stack())

    def expect_child(self, key: Hashable, parent: Span) -> None:
        """Make ``parent`` the parent of the next span opened with ``adopt=key``.

        For work handed to another thread: that thread's own stack is
        empty, so the hand-off is named explicitly.
        """
        with self._lock:
            self._adopted[key] = parent

    def forget_child(self, key: Hashable) -> None:
        with self._lock:
            self._adopted.pop(key, None)

    @contextmanager
    def span(
        self, name: str, request: Optional[str] = None, adopt: Hashable = None
    ) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and adopt is not None:
            with self._lock:
                parent = self._adopted.pop(adopt, None)
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            sid=sid,
            name=name,
            start=perf_counter(),
            parent=parent.sid if parent is not None else None,
            request=request,
            thread=threading.current_thread().name,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def leaf(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` timing it as a leaf: a count and a time, no span.

        For calls too frequent to keep one span each.  Only the
        outermost leaf on a thread credits its time to the enclosing
        span, so nested leaves are not subtracted twice from its self
        time.
        """
        local = self._local
        depth = getattr(local, "leaf_depth", 0)
        local.leaf_depth = depth + 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            local.leaf_depth = depth
            self.record_leaf(name, perf_counter() - start, credit=depth == 0)

    def record_leaf(self, name: str, elapsed: float, credit: bool = True) -> None:
        """Count one leaf call of ``elapsed`` seconds measured by the caller."""
        if credit:
            stack = self._stack()
            if stack:
                stack[-1].leaf += elapsed
        with self._lock:
            self.counts[name] += 1
            self.leaf_seconds[name] += elapsed

    # -- summaries -----------------------------------------------------------

    def finished(self) -> List[Span]:
        with self._lock:
            return list(self.spans)

    def self_times(self) -> Dict[int, float]:
        return self_times(
            [(s.sid, s.parent, s.start, s.end, s.leaf) for s in self.finished()]
        )

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice.
        """
        spans = self.finished()
        by_id = {span.sid: span for span in spans}
        own = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for span in spans:
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += own[span.sid]
            ancestor = by_id.get(span.parent) if span.parent is not None else None
            nested = False
            while ancestor is not None:
                if ancestor.name == span.name:
                    nested = True
                    break
                ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
            if not nested:
                row["total_s"] += span.duration
        return table

    def dump(self, path: Path) -> None:
        """Write every span, counter and leaf timer as one JSON document."""
        spans = self.finished()
        own = self.self_times()
        origin = min((s.start for s in spans), default=0.0)
        document = {
            "spans": [
                {
                    "id": s.sid,
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "self": own[s.sid],
                    "parent": s.parent,
                    "request": s.request,
                    "thread": s.thread,
                }
                for s in spans
            ],
            "counts": dict(self.counts),
            "leaf_seconds": dict(self.leaf_seconds),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))
