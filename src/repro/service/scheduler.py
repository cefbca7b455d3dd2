"""Scheduler + service facade: cache read-through, dedupe, retries.

The :class:`Scheduler` turns a :class:`~repro.service.batcher.MicroBatch`
into resolved responses, in three tiers:

1. **In-flight dedupe** — a fingerprint already being computed (by an
   earlier batch) is joined, not recomputed; the rider resolves when the
   owner does (``source="coalesced"``).
2. **Cache read-through** — fingerprints present in the persistent
   :class:`~repro.sweep.result_cache.ResultCache` resolve immediately
   (``source="cache"``); this is the path that must stay inside the
   service's p99 latency budget, and it is shared with the CLI sweep
   cache, so a ``repro sweep`` run pre-warms the service.
3. **Compute** — remaining fingerprints go to the
   :class:`~repro.sweep.executor.SweepExecutor` on the one dispatch
   thread.  A failed dispatch is retried under the shared
   :class:`~repro.faults.policy.CallPolicy`: ``max_retries``
   retries, each after ``min(1 s, retry_backoff_s * 2**(k-1))`` plus
   up to ``retry_jitter_s`` of seeded jitter.  Results are persisted by
   the executor's own write path, so every other tier benefits next
   time.

Compute failures (retry exhaustion, or points the supervised pool
resolved to explicit failure records) feed a
:class:`~repro.faults.breaker.CircuitBreaker`; while it is open — or
when the admission queue saturates — the service **degrades
gracefully**: compute-path requests get an immediate closed-form
analytic estimate (:func:`~repro.faults.degrade.analytic_estimate`)
flagged ``degraded: true`` instead of a 5xx or a doomed queue slot.
Cache hits keep being served from cache throughout.

:class:`ReductionService` wires admission -> batcher -> scheduler into
one object with ``start``/``submit``/``stop``; the HTTP front end and
the in-process test/benchmark harnesses both sit on top of it.
"""

from __future__ import annotations

import asyncio
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .._version import __version__
from ..core.machine import Machine
from ..errors import ReproError
from ..faults.breaker import CircuitBreaker
from ..faults.degrade import analytic_estimate
from ..faults.injector import fire
from ..faults.policy import RETRY, USABLE, CallPolicy, Verdict
from ..obs.slo import SLOEngine, parse_slo_config
from ..obs.trace import TraceContext, mint_context
from ..obs.tsdb import TimeSeriesStore
from ..sweep.executor import SweepExecutor
from ..sweep.result_cache import open_result_cache
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.state import get_telemetry
from .admission import QUEUE_FULL, AdmissionController, PendingRequest
from .api import SimRequest, SimResponse, summarize_record
from .batcher import MicroBatch, MicroBatcher

__all__ = ["ServiceSettings", "Scheduler", "ReductionService"]

#: Latency histogram buckets (seconds): 100 us .. 30 s.
LATENCY_BUCKETS = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 30.0
)


@dataclass(frozen=True)
class ServiceSettings:
    """Deployment knobs for one service instance (see docs/SERVICE.md)."""

    max_queue: int = 256
    rate_limit: Optional[float] = None  # requests/second/client; None = off
    burst: Optional[int] = None  # bucket capacity; None = max(1, rate_limit)
    max_batch: int = 64
    batch_window_s: float = 0.002
    default_timeout_s: Optional[float] = 30.0
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    retry_jitter_s: float = 0.05
    degrade: bool = True
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 2.0
    #: Distributed-tracing sample rate in [0, 1]; 0 = tracing off.
    #: Requires telemetry to be enabled (``repro serve --trace-sample``
    #: flips it on) — the decision per request is deterministic from the
    #: request fingerprint (see repro.obs.trace).
    trace_sample: float = 0.0
    #: Seconds between tsdb frames; 0 = continuous monitoring off.
    tsdb_interval_s: float = 0.0
    #: Ring capacity of the tsdb (frames retained).
    tsdb_capacity: int = 600
    #: SLO objectives: None = defaults, else inline JSON or a file path
    #: (see repro.obs.slo.parse_slo_config).  Only read when the tsdb
    #: is on — the SLO engine evaluates over its frames.
    slo_config: Optional[str] = None
    #: Directory for durable streaming-sweep jobs (``POST /jobs``);
    #: None = the job routes answer 503 (``repro serve --jobs-dir``).
    jobs_dir: Optional[str] = None
    #: Concurrent background jobs the in-service manager runs.
    jobs_max_running: int = 1


class Scheduler:
    """Resolves micro-batches against cache, in-flight work, and compute."""

    def __init__(
        self,
        executor: SweepExecutor,
        settings: ServiceSettings,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.executor = executor
        self.settings = settings
        self.registry = registry or MetricsRegistry()
        self.policy = CallPolicy(
            attempts=settings.max_retries + 1,
            backoff_s=settings.retry_backoff_s,
            jitter_s=settings.retry_jitter_s,
            registry=self.registry,
            name="service",
        )
        self.breaker = CircuitBreaker(
            name="service",
            failure_threshold=settings.breaker_threshold,
            cooldown_s=settings.breaker_cooldown_s,
            registry=self.registry,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-dispatch"
        )
        #: fingerprint -> future resolving to the computed record.
        self._inflight: Dict[str, "asyncio.Future"] = {}

    # -- batch resolution -----------------------------------------------------
    async def dispatch(self, batch: MicroBatch) -> None:
        """Resolve every waiter in *batch*; never raises."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        joined: List[Tuple[str, "asyncio.Future"]] = []
        to_compute: List[str] = []
        for key, waiters in batch.entries.items():
            inflight = self._inflight.get(key)
            if inflight is not None:
                joined.append((key, inflight))
                self.registry.counter("service.inflight_joined").add(
                    len(waiters)
                )
                continue
            cached = self.executor.cache.get(key) if self.executor.cache else None
            if cached is not None:
                self.registry.counter("service.cache_hits").add(len(waiters))
                self._resolve(batch.entries[key], cached, "cache", started)
                continue
            to_compute.append(key)
        if to_compute:
            record_futures = {
                key: loop.create_future() for key in to_compute
            }
            self._inflight.update(record_futures)
            try:
                await self._compute(batch, to_compute, started)
            finally:
                for key in to_compute:
                    future = self._inflight.pop(key, None)
                    if future is not None and not future.done():
                        future.cancel()
        for key, inflight in joined:
            try:
                record = await asyncio.shield(inflight)
            except (asyncio.CancelledError, Exception):
                self._fail(
                    batch.entries[key],
                    "compute_failed",
                    "the computation this request coalesced onto failed",
                )
                continue
            self._resolve(batch.entries[key], record, "coalesced", started)

    def _run(self, batch: MicroBatch, payloads: List[tuple]) -> List[dict]:
        """One executor run, on the dispatch thread.

        A traced batch wraps it in a ``scheduler.dispatch`` span.  The
        span sits on the dispatch thread's stack, so the executor's
        ``sweep.stage`` span nests under it naturally, and worker spans
        shipped back re-parent below the stage — stitching the
        cross-thread (and cross-process) tree under the batch span.
        """
        kind = batch.kind
        if batch.trace_span_id is None:
            return self.executor.run(kind, payloads, f"service-{kind}")
        with get_telemetry().recorder.span(
            "scheduler.dispatch",
            category="service",
            parent_id=batch.trace_span_id,
            kind=kind,
            points=len(payloads),
            trace_ids=list(batch.trace_ids),
        ):
            return self.executor.run(kind, payloads, f"service-{kind}")

    async def _compute(
        self, batch: MicroBatch, keys: List[str], started: float
    ) -> None:
        loop = asyncio.get_running_loop()
        payloads = [batch.entries[key][0].payload for key in keys]

        async def attempt(_executor: SweepExecutor) -> Verdict:
            try:
                decision = fire("scheduler.dispatch")
                if decision is not None:
                    if decision.mode == "slow":
                        await asyncio.sleep(
                            decision.delay_s
                            if decision.delay_s is not None else 0.05
                        )
                    elif decision.mode == "error":
                        raise RuntimeError("injected dispatch failure")
                    elif decision.mode == "timeout":
                        await asyncio.sleep(
                            decision.delay_s
                            if decision.delay_s is not None else 0.1
                        )
                        raise asyncio.TimeoutError(
                            "injected dispatch timeout"
                        )
                return USABLE, await loop.run_in_executor(
                    self._pool, self._run, batch, payloads
                )
            except Exception as exc:
                return RETRY, exc

        outcome = await self.policy.call(
            lambda _tried: (self.executor,), attempt
        )
        retries = outcome.attempts - 1
        if not outcome.ok:
            exc = outcome.value
            self.registry.counter("service.errors").add(len(keys))
            self.breaker.record_failure(loop.time())
            for key in keys:
                self._fail(
                    batch.entries[key],
                    "compute_failed",
                    f"{type(exc).__name__}: {exc}",
                    retries=retries,
                )
            return
        records = outcome.value
        self.registry.counter("service.computed").add(len(keys))
        now = loop.time()
        for key, record in zip(keys, records):
            inflight = self._inflight.get(key)
            if isinstance(record, dict) and record.get("failed"):
                # The supervised pool quarantined or timed this point
                # out: an explicit failure, never served as ok (and
                # never cached — the executor already skipped it).
                self.registry.counter("service.failed_points").add(1)
                self.breaker.record_failure(now)
                if inflight is not None and not inflight.done():
                    inflight.cancel()
                self._fail(
                    batch.entries[key],
                    "compute_failed",
                    str(record.get("error") or "sweep point failed"),
                    retries=retries,
                )
                continue
            self.breaker.record_success(now)
            if inflight is not None and not inflight.done():
                inflight.set_result(record)
            self._resolve(
                batch.entries[key], record, "computed", started,
                retries=retries,
            )

    # -- waiter resolution ----------------------------------------------------
    def _resolve(
        self,
        waiters: List[PendingRequest],
        record: dict,
        source: str,
        dispatch_started: float,
        retries: int = 0,
    ) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        for i, pending in enumerate(waiters):
            if pending.future.done():
                continue
            # Within one batch only the first waiter "computed"; the rest
            # coalesced onto it.  Cache hits serve every waiter equally.
            waiter_source = (
                source if (i == 0 or source == "cache") else "coalesced"
            )
            latency = now - pending.enqueued_at
            self.registry.histogram(
                "service.latency_seconds",
                boundaries=LATENCY_BUCKETS,
                source=waiter_source,
            ).observe(latency)
            self.registry.counter("service.completed", status="ok").add(1)
            pending.future.set_result(
                SimResponse(
                    status="ok",
                    request_id=pending.request.request_id,
                    fingerprint=pending.key,
                    source=waiter_source,
                    result=summarize_record(pending.request, record),
                    queue_seconds=round(
                        dispatch_started - pending.enqueued_at, 9
                    ),
                    service_seconds=round(latency, 9),
                    retries=retries,
                )
            )

    def _fail(
        self,
        waiters: List[PendingRequest],
        reason: str,
        message: str,
        retries: int = 0,
    ) -> None:
        self.registry.counter("service.completed", status="error").add(
            len(waiters)
        )
        for pending in waiters:
            if not pending.future.done():
                pending.future.set_result(
                    SimResponse(
                        status="error",
                        request_id=pending.request.request_id,
                        reason=reason,
                        result={"message": message},
                        retries=retries,
                    )
                )

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class ReductionService:
    """Admission -> micro-batcher -> scheduler, behind one async facade.

    Parameters
    ----------
    machine:
        The simulated node requests are evaluated against.
    executor:
        A configured :class:`SweepExecutor`; built from *machine* (with
        the default persistent cache) when omitted.  ``workers=1`` keeps
        every result byte-identical to the direct CLI path.
    settings:
        Deployment knobs; see :class:`ServiceSettings`.
    registry:
        Metrics sink; defaults to the process-global telemetry registry
        so ``/metrics`` and ``repro profile`` see service counters.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        executor: Optional[SweepExecutor] = None,
        settings: Optional[ServiceSettings] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.machine = machine or Machine()
        self.settings = settings or ServiceSettings()
        self.registry = registry or get_telemetry().registry
        if executor is None:
            executor = SweepExecutor(
                self.machine,
                cache=open_result_cache(self.machine.config.sweep_cache_dir),
            )
        self.executor = executor
        self.scheduler = Scheduler(executor, self.settings, self.registry)
        self.admission = AdmissionController(
            max_queue=self.settings.max_queue,
            rate_limit=self.settings.rate_limit,
            burst=self.settings.burst,
            registry=self.registry,
        )
        # Tracing needs both the knob and the telemetry layer: with
        # telemetry off there is no recorder to hold the spans.
        self._tracing = (
            self.settings.trace_sample > 0 and get_telemetry().enabled
        )
        self.batcher = MicroBatcher(
            self.admission.queue,
            self.scheduler.dispatch,
            max_batch=self.settings.max_batch,
            window_s=self.settings.batch_window_s,
            registry=self.registry,
            trace=self._tracing,
        )
        # Continuous monitoring: a tsdb sampling loop plus the SLO
        # engine over it, both off unless tsdb_interval_s > 0.
        self.tsdb: Optional[TimeSeriesStore] = None
        self.slo: Optional[SLOEngine] = None
        if self.settings.tsdb_interval_s > 0:
            self.tsdb = TimeSeriesStore(
                self.registry,
                capacity=self.settings.tsdb_capacity,
                interval_s=self.settings.tsdb_interval_s,
            )
            self.slo = SLOEngine(
                self.tsdb, parse_slo_config(self.settings.slo_config)
            )
        self._sampler_task: Optional["asyncio.Task"] = None
        # Scrape attribution: who/what produced these numbers.
        self.registry.gauge(
            "build_info",
            version=__version__,
            python=platform.python_version(),
            machine=self.executor.machine_fingerprint[:12],
        ).set(1.0)
        self._started = False
        # Hot-path instrument handles, resolved once: registry lookups
        # sort label tuples and take a lock, which shows up at load.
        self._c_requests = self.registry.counter("service.requests")
        self._c_cache_hits = self.registry.counter("service.cache_hits")
        self._c_ok = self.registry.counter("service.completed", status="ok")
        self._c_err = self.registry.counter(
            "service.completed", status="error"
        )
        self._h_cache_latency = self.registry.histogram(
            "service.latency_seconds",
            boundaries=LATENCY_BUCKETS,
            source="cache",
        )
        #: fingerprint -> summarized result document.  The summary is a
        #: pure function of fields the fingerprint already hashes, so
        #: repeats of a point can share it.
        self._summary_cache: Dict[str, Dict[str, Any]] = {}
        #: Lazy durable-jobs manager (see the ``jobs`` property).
        self._jobs: Optional[Any] = None

    @property
    def jobs(self) -> Optional[Any]:
        """The durable-jobs manager, or ``None`` when jobs are disabled.

        Built lazily on first use (import of :mod:`repro.jobs` deferred:
        that package imports the sweep/verify layers and would cycle at
        module level).  Shares the service's machine and persistent
        result cache, so job points and ``/simulate`` traffic warm each
        other.
        """
        if self.settings.jobs_dir is None:
            return None
        if self._jobs is None:
            from ..jobs import JobManager

            self._jobs = JobManager(
                self.settings.jobs_dir,
                self.machine,
                cache=self.executor.cache,
                max_running=self.settings.jobs_max_running,
            )
        return self._jobs

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        self.batcher.start()
        if self.tsdb is not None and self._sampler_task is None:
            self.tsdb.sample()  # base frame: windowed deltas start here
            self._sampler_task = asyncio.get_running_loop().create_task(
                self._sample_loop(), name="repro-obs-tsdb"
            )
        self._started = True

    async def _sample_loop(self) -> None:
        while True:
            await asyncio.sleep(self.settings.tsdb_interval_s)
            self.tsdb.sample()

    async def stop(self) -> None:
        """Graceful: stop admitting, drain the queue, stop the batcher."""
        self.admission.close()
        if self._jobs is not None:
            # Cancel-at-next-checkpoint, then join: the durable prefix
            # of every running job stays resumable after restart.
            await asyncio.get_running_loop().run_in_executor(
                None, self._jobs.shutdown
            )
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        if self._started:
            await self.batcher.drain()
            await self.batcher.stop()
        self.scheduler.shutdown()
        self._started = False

    # -- tracing --------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """Whether this instance samples distributed traces."""
        return self._tracing

    def trace_for(
        self,
        request: SimRequest,
        incoming: Optional[TraceContext] = None,
    ) -> Optional[TraceContext]:
        """The context this request should carry, or ``None`` (unsampled).

        An *incoming* context (from the ``x-repro-trace`` header) wins:
        its sampling bit is honored either way, so an upstream that
        decided to trace keeps its trace id here.  Without one, the
        decision hashes the request fingerprint against
        ``trace_sample`` — deterministic, so repeated runs trace the
        same requests.
        """
        if not self._tracing:
            return None
        if incoming is not None:
            return incoming if incoming.sampled else None
        try:
            kind, payload = request.payload()
            key = self.executor.cache_key(kind, payload)
        except ReproError:
            return None  # the untraced path will produce the error
        return mint_context(
            key, request.request_id, self.settings.trace_sample
        )

    # -- the front door -------------------------------------------------------
    async def submit(
        self,
        request: SimRequest,
        trace: Optional[TraceContext] = None,
    ) -> SimResponse:
        """Run one request through the full pipeline; always responds.

        Admission rejections come back immediately as explicit
        ``rejected`` responses; admitted requests resolve when their
        batch does (every path through the scheduler resolves the
        future, so a submit never hangs).

        *trace* (from :meth:`trace_for`) wraps the whole submission in
        a ``service.request`` span and propagates the context to the
        batch that serves it.
        """
        if trace is None or not self._tracing:
            return await self._submit(request, None, None)
        recorder = get_telemetry().recorder
        rspan = recorder.open(
            "service.request",
            category="service",
            parent_id=trace.parent_id,
            trace_id=trace.trace_id,
            request_id=request.request_id,
        )
        try:
            response = await self._submit(request, trace, rspan)
        except BaseException:
            recorder.close(rspan, error=True)
            raise
        recorder.close(
            rspan,
            status=response.status,
            source=getattr(response, "source", None) or "none",
            degraded=bool(getattr(response, "degraded", False)),
        )
        return response

    async def _submit(
        self,
        request: SimRequest,
        trace: Optional[TraceContext],
        rspan: Optional[Any],
    ) -> SimResponse:
        if not self._started:
            await self.start()
        loop = asyncio.get_running_loop()
        self._c_requests.add(1)
        try:
            kind, payload = request.payload()
            key = self.executor.cache_key(kind, payload)
        except ReproError as exc:
            self._c_err.add(1)
            return SimResponse.error(
                request.request_id, "invalid_request", str(exc)
            )
        now = loop.time()
        reason = self.admission.precheck(request.client_id, now)
        if reason is not None:
            return SimResponse.rejected(request.request_id, reason)
        # Fast path: persistent-cache hits answer inline, skipping the
        # queue -> batcher -> dispatch hops entirely.  This is what keeps
        # cache-hit latency flat under load, and it means a full queue
        # sheds only work that would actually cost compute.
        if self.executor.cache is not None:
            cached = self.executor.cache.get(key)
            if cached is not None:
                self._c_cache_hits.add(1)
                latency = loop.time() - now
                self._h_cache_latency.observe(latency)
                self._c_ok.add(1)
                result = self._summary_cache.get(key)
                if result is None:
                    result = summarize_record(request, cached)
                    if len(self._summary_cache) >= 4096:
                        self._summary_cache.clear()
                    self._summary_cache[key] = result
                return SimResponse(
                    status="ok",
                    request_id=request.request_id,
                    fingerprint=key,
                    source="cache",
                    result=result,
                    queue_seconds=0.0,
                    service_seconds=round(latency, 9),
                )
        # Load shedding: while the breaker is open, compute-path traffic
        # gets the analytic estimate instead of queueing work the
        # backend cannot currently finish.  (Cache hits were already
        # served above — degradation never applies to them.)
        if self.settings.degrade and not self.scheduler.breaker.allow(now):
            return self._degraded(request, key, "breaker_open", now)
        timeout = (
            request.timeout_s
            if request.timeout_s is not None
            else self.settings.default_timeout_s
        )
        pending = PendingRequest(
            request=request,
            key=key,
            kind=kind,
            payload=payload,
            future=loop.create_future(),
            enqueued_at=now,
            deadline=(now + timeout) if timeout is not None else None,
        )
        if trace is not None and rspan is not None:
            # The request is about to join a batch: mark the flow start
            # (the exporter turns it into a Chrome flow arrow into the
            # batch span) and hand the batcher a context re-rooted under
            # this request's span.
            rspan.set(flow_out=trace.trace_id)
            pending.extra["trace"] = trace.child(rspan.span_id)
        reason = self.admission.enqueue(pending)
        if reason is not None:
            if reason == QUEUE_FULL and self.settings.degrade:
                # Saturation counts as a failure signal (it opens the
                # breaker under sustained overload) but the client still
                # gets an answer, not a 429.
                self.scheduler.breaker.record_failure(loop.time())
                return self._degraded(request, key, "queue_full", now)
            return SimResponse.rejected(request.request_id, reason)
        return await pending.future

    def _degraded(
        self, request: SimRequest, key: str, reason: str, started: float
    ) -> SimResponse:
        """The graceful-degradation response: analytic, flagged, 200."""
        loop = asyncio.get_running_loop()
        self.registry.counter("service.degraded", reason=reason).add(1)
        record = analytic_estimate(self.machine, request)
        return SimResponse(
            status="ok",
            request_id=request.request_id,
            fingerprint=key,
            source="degraded",
            degraded=True,
            result=summarize_record(request, record),
            queue_seconds=0.0,
            service_seconds=round(loop.time() - started, 9),
        )

    async def submit_many(self, requests: List[SimRequest]) -> List[SimResponse]:
        """Submit a client batch concurrently; order is preserved."""
        return list(
            await asyncio.gather(*(self.submit(r) for r in requests))
        )

    # -- introspection --------------------------------------------------------
    def slo_report(self) -> Tuple[bool, Dict[str, Any]]:
        """The ``GET /health`` verdict: (healthy, JSON document).

        Without the SLO engine (tsdb off) the service is trivially
        healthy — /health then degrades to a richer /healthz.  With it,
        the engine's multi-window verdict decides 200 vs 503.
        """
        base = self.health()
        if self.slo is None or self.tsdb is None:
            doc: Dict[str, Any] = {"healthy": True, "slo_enabled": False}
            doc.update(base)
            return True, doc
        if len(self.tsdb) == 0:
            self.tsdb.sample()
        report = self.slo.evaluate()
        report["slo_enabled"] = True
        report["service"] = base
        return bool(report["healthy"]), report

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok" if not self.admission.closed else "draining",
            "queue_depth": self.admission.depth(),
            "max_queue": self.settings.max_queue,
            "inflight_fingerprints": len(self.scheduler._inflight),
            "breaker": self.scheduler.breaker.state,
            "workers": self.executor.workers,
            "cache": (
                self.executor.cache.describe()
                if self.executor.cache is not None
                else "disabled"
            ),
        }
