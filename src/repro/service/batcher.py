"""Micro-batching: coalesce duplicates, group compatible requests.

The batcher drains the admission queue into short time-boxed batches
(first request opens a window of ``window_s`` seconds; the batch closes
when the window expires or ``max_batch`` requests are gathered — the
classic latency/throughput knob).  Within a batch it

* **coalesces** requests with identical fingerprints: one computation,
  every waiter gets the same record (``source="coalesced"`` for the
  riders), and
* **groups** the unique fingerprints by task kind (``gpu_point`` vs
  ``coexec_sweep``) so each dispatched batch is homogeneous — exactly
  the shape :meth:`~repro.sweep.executor.SweepExecutor.run` fans out
  over its process pool.

Requests whose deadline expired while queued are completed with an
explicit ``deadline_exceeded`` rejection here, before any compute is
spent on them.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional

from ..telemetry.metrics import MetricsRegistry
from ..telemetry.state import get_telemetry
from .admission import PendingRequest
from .api import SimResponse

__all__ = ["MicroBatch", "MicroBatcher"]

#: Batch-size histogram buckets (requests per dispatched batch).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass
class MicroBatch:
    """One homogeneous batch: unique payloads plus their waiters."""

    kind: str
    #: fingerprint key -> every pending request that wants this result,
    #: in arrival order (the first is the "owner", the rest coalesced).
    entries: Dict[str, List[PendingRequest]] = field(default_factory=dict)
    #: Span id of this batch's ``service.batch`` span when tracing; the
    #: scheduler parents its dispatch span under it.
    trace_span_id: Optional[str] = None
    #: Trace ids of every sampled request that joined the batch.
    trace_ids: tuple = ()

    @property
    def unique(self) -> int:
        return len(self.entries)

    @property
    def waiters(self) -> int:
        return sum(len(v) for v in self.entries.values())


DispatchFn = Callable[[MicroBatch], Awaitable[None]]


class MicroBatcher:
    """Pulls admitted requests and dispatches coalesced micro-batches."""

    def __init__(
        self,
        queue: "asyncio.Queue[PendingRequest]",
        dispatch: DispatchFn,
        max_batch: int = 64,
        window_s: float = 0.002,
        registry: Optional[MetricsRegistry] = None,
        trace: bool = False,
    ):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        self.queue = queue
        self.dispatch = dispatch
        self.max_batch = max_batch
        self.window_s = window_s
        self.registry = registry or MetricsRegistry()
        #: When on, batches that gathered sampled requests get a
        #: ``service.batch`` span linking back (flow_in) to each one.
        self.trace = trace
        self._task: Optional[asyncio.Task] = None
        self._inflight: "set[asyncio.Task]" = set()

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-service-batcher"
            )

    async def stop(self) -> None:
        """Stop pulling; waits for already-dispatched batches to finish."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)

    async def drain(self) -> None:
        """Wait until the queue is empty and every dispatch completed."""
        while self.queue.qsize() or self._inflight:
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)
            else:
                await asyncio.sleep(0)

    # -- the pull loop --------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self.queue.get()
            batch = [first]
            deadline = loop.time() + self.window_s
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Window closed; still sweep anything already queued.
                    while (
                        len(batch) < self.max_batch and self.queue.qsize()
                    ):
                        batch.append(self.queue.get_nowait())
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self.queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            self._flush(batch, loop.time())

    def _flush(self, batch: List[PendingRequest], now: float) -> None:
        groups: Dict[str, MicroBatch] = {}
        coalesced = 0
        for pending in batch:
            if pending.future.done():
                continue  # caller timed out / disconnected meanwhile
            if pending.expired(now):
                pending.future.set_result(
                    SimResponse.rejected(
                        pending.request.request_id, "deadline_exceeded"
                    )
                )
                self.registry.counter(
                    "service.rejected", reason="deadline_exceeded"
                ).add(1)
                continue
            group = groups.setdefault(pending.kind, MicroBatch(pending.kind))
            waiters = group.entries.setdefault(pending.key, [])
            if waiters:
                coalesced += 1
            waiters.append(pending)
        if coalesced:
            self.registry.counter("service.coalesced").add(coalesced)
        for group in groups.values():
            self.registry.counter("service.batches").add(1)
            self.registry.histogram(
                "service.batch_size", boundaries=BATCH_BUCKETS
            ).observe(group.waiters)
            coro = self.dispatch(group)
            if self.trace:
                coro = self._traced_dispatch(group, coro)
            task = asyncio.get_running_loop().create_task(coro)
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _traced_dispatch(self, group: MicroBatch, coro) -> None:
        """Wrap one dispatch in a ``service.batch`` span with links.

        The batch is the coalescing point of the trace graph: one span,
        with a flow link *in* from every sampled request that joined —
        a batch of N requests renders as N arrows converging on it.
        Batches with no sampled waiters dispatch untraced.
        """
        links = []
        for waiters in group.entries.values():
            for pending in waiters:
                ctx = pending.extra.get("trace")
                if ctx is not None:
                    links.append(ctx)
        if not links:
            await coro
            return
        group.trace_ids = tuple(ctx.trace_id for ctx in links)
        recorder = get_telemetry().recorder
        span = recorder.open(
            "service.batch",
            category="service",
            kind=group.kind,
            unique=group.unique,
            waiters=group.waiters,
            flow_in=list(group.trace_ids),
        )
        group.trace_span_id = span.span_id
        try:
            await coro
        except BaseException:
            recorder.close(span, error=True)
            raise
        recorder.close(span)
