"""Hierarchical wall-clock spans.

A :class:`Span` is one timed region of the pipeline — a compilation, a
launch-geometry resolution, a sweep stage, one sweep point.  Spans nest:
each thread keeps a stack, so a span opened while another is active
records that span as its parent, and the exported tree reconstructs the
full call hierarchy (the reproduction's answer to an Nsight timeline's
row nesting).  Every span is built by :meth:`SpanRecorder.open` and
finished by :meth:`SpanRecorder.close`; the stack-based
:meth:`SpanRecorder.span` is that pair plus the stack, and the service's
asyncio side calls the pair directly with an explicit parent.

Identifiers are process- and thread-safe: ``<pid>-<tid>-<seq>``, so spans
recorded inside sweep worker processes can ship back with their results
(:meth:`SpanRecorder.export_since` / :meth:`SpanRecorder.ingest`) and
re-parent under the coordinator's stage span without ID collisions.

Timestamps are ``time.time()`` epoch seconds (comparable across
processes); durations come from ``time.perf_counter()`` deltas.  Spans
for *simulated* activities live in the other clock domain — see
:meth:`repro.sim.trace.Trace.to_events`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder"]

# One epoch anchor per process: span starts are epoch + perf_counter so
# starts and durations share the same monotonic timebase (children nest
# exactly inside their parents), while remaining comparable — up to clock
# skew — across coordinator and worker processes.
_EPOCH = time.time() - time.perf_counter()


@dataclass
class Span:
    """One finished (or in-flight) timed region."""

    name: str
    category: str
    span_id: str
    parent_id: Optional[str]
    start: float  # epoch seconds
    duration: float = 0.0
    pid: int = 0
    tid: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)
    # perf_counter() at open: the duration's timebase, never exported.
    _t0: float = field(default=0.0, repr=False, compare=False)

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            category=data["category"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start=data["start"],
            duration=data.get("duration", 0.0),
            pid=data.get("pid", 0),
            tid=data.get("tid", 0),
            attributes=dict(data.get("attributes", {})),
        )


class _NoopSpan:
    """Shared stand-in yielded when telemetry is disabled."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class SpanRecorder:
    """Per-process span store: a thread-local stack plus a finished list."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._local = threading.local()
        self.finished: List[Span] = []

    # -- stack ----------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_id(self) -> Optional[str]:
        span = self.current()
        return span.span_id if span else None

    # -- recording ------------------------------------------------------------
    def open(
        self,
        name: str,
        category: str = "repro",
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Start a span under an explicit parent, off the thread-local stack.

        The caller owns the span and must pass it to :meth:`close`.
        Nothing is pushed on the stack, so this is the form for spans
        whose lifetime crosses ``await`` points: interleaved asyncio
        requests cannot adopt each other's spans as parents.
        """
        t0 = time.perf_counter()
        pid, tid = os.getpid(), threading.get_ident()
        return Span(
            name=name,
            category=category,
            span_id=f"{pid:x}-{tid:x}-{next(self._seq):x}",
            parent_id=parent_id,
            start=_EPOCH + t0,
            pid=pid,
            tid=tid,
            attributes=attributes,
            _t0=t0,
        )

    def close(self, span: Span, **attributes: Any) -> Span:
        """Finish a span from :meth:`open` and record it."""
        span.duration = time.perf_counter() - span._t0
        span.attributes.update(attributes)
        with self._lock:
            self.finished.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "repro",
        *,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> Iterator[Span]:
        """Open a child of the current span for the duration of the block.

        ``parent_id`` overrides the stack parent — used when the logical
        parent lives on another thread (e.g. a dispatch span parented
        under an asyncio-side batch span).
        """
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        sp = self.open(name, category, parent_id, **attributes)
        stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.attributes.setdefault("error", True)
            raise
        finally:
            stack.pop()
            self.close(sp)

    # -- worker shipping ------------------------------------------------------
    def mark(self) -> int:
        """Current length of the finished list (for :meth:`export_since`)."""
        with self._lock:
            return len(self.finished)

    def export_since(self, mark: int) -> List[Dict[str, Any]]:
        """Finished spans recorded after *mark*, as plain dicts."""
        with self._lock:
            return [sp.to_dict() for sp in self.finished[mark:]]

    def ingest(
        self, spans: List[Dict[str, Any]], parent_id: Optional[str] = None
    ) -> List[Span]:
        """Adopt externally recorded spans (e.g. shipped from a worker).

        Spans without a parent re-parent under *parent_id*, so a worker's
        subtree hangs off the coordinator's stage span in the exported
        timeline.  Returns the adopted spans.
        """
        adopted = [Span.from_dict(d) for d in spans]
        if parent_id is not None:
            for sp in adopted:
                if sp.parent_id is None:
                    sp.parent_id = parent_id
                    sp.attributes.setdefault("reparented", True)
        with self._lock:
            self.finished.extend(adopted)
        return adopted

    def snapshot(self) -> List[Span]:
        """A copy of the finished-span list."""
        with self._lock:
            return list(self.finished)

    def clear(self) -> None:
        with self._lock:
            self.finished.clear()
