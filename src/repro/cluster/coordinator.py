"""The cluster coordinator: membership, routing, recovery, jobs.

One process owns the cluster picture and never computes simulation
points itself (except as a last-resort local fallback for job chunks
when the whole ring is gone):

- **Membership** (:mod:`.membership`): worker nodes join over HTTP and
  renew heartbeat leases; a tick task expires them ALIVE → SUSPECT →
  DEAD.  Every transition lands in the flight recorder, the
  ``cluster.membership_transitions`` counter, and per-state /
  per-node gauges.
- **Routing** (:mod:`.ring`): request fingerprints and job-chunk
  digests map onto worker nodes through a consistent-hash ring, so a
  node loss remaps only that node's arc.
- **Recovery** (:mod:`.assigner`): a DEAD node's in-flight chunks are
  detached exactly once and recomputed elsewhere; completions are
  first-write-wins with digest dedupe, so a slow "dead" node racing
  its replacement can never smuggle in a duplicate or conflicting
  result.
- **Forwarding**: ``/simulate`` and job chunks walk the ring's
  preference list under one :class:`~repro.faults.policy.CallPolicy`:
  attempt budget, exponential backoff, per-node circuit breakers (a
  flapping node is quarantined rather than hammered), and for
  ``/simulate`` only, a hedge after ``hedge_delay_s``.  Only when *no*
  node is dispatchable does ``/simulate`` degrade through
  :func:`repro.faults.degrade.analytic_estimate` (flagged
  ``degraded: true``), exactly like the single-box service.
- **Jobs**: the standard ``/jobs`` API backed by
  :class:`ClusterJobManager`, whose executor ships chunks to nodes as
  ``(spec, start, count)`` index ranges — nodes rebuild identical
  payload tuples from the spec, which is what keeps a cluster job's
  result stream byte-identical to a single-node run.

The ``cluster.assign`` fault point fires before every attempt (modes:
``error`` — the assignment is dropped before it reaches the node: an
attempt spent, never the node's fault; ``slow``), which is how chaos
exercises the retry machinery deterministically.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..faults.breaker import CircuitBreaker
from ..faults.degrade import analytic_estimate
from ..faults.injector import fire
from ..faults.policy import FATAL, LOST, RETRY, USABLE, CallPolicy, Verdict
from ..jobs.manager import JobManager, _ManagedJob
from ..obs.flight import flight
from ..obs.promtext import (
    PROM_CONTENT_TYPE, prometheus_text, wants_prometheus,
)
from ..service.api import (
    ServiceValidationError, SimResponse, parse_request, summarize_record,
)
from ..service.http import BaseHTTPServer, _HTTPError, _RawBody
from ..sweep.executor import SweepExecutor
from ..sweep.fingerprint import (
    CACHE_VERSION, fingerprint, machine_fingerprint_data,
)
from ..telemetry.exporters import publish_counts
from ..telemetry.state import metrics
from ..verify.fuzzer import case_digest
from . import assigner as assign_mod
from ._http import ClusterHTTPError, request_json
from .assigner import Assigner
from .membership import ALIVE, DEAD, Membership, NodeInfo, SUSPECT
from .ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ClusterJobExecutor",
    "ClusterJobManager",
    "ClusterState",
    "CoordinatorHTTPServer",
    "CoordinatorSettings",
]

_STATE_GAUGE = {ALIVE: 0.0, SUSPECT: 1.0, DEAD: 2.0}


@dataclass
class CoordinatorSettings:
    """Deployment knobs for one coordinator (CLI: ``repro coordinator``)."""

    lease_s: float = 3.0
    grace_s: float = 6.0
    vnodes: int = DEFAULT_VNODES
    #: Distinct nodes tried per request/chunk before giving up.
    max_attempts: int = 3
    #: Base of the exponential retry backoff between failed attempts.
    retry_backoff_s: float = 0.05
    #: Race a second node after this long without a ``/simulate`` answer
    #: (None/0: off; hedges share ``max_attempts``; chunks never hedge).
    hedge_delay_s: Optional[float] = None
    forward_timeout_s: float = 30.0
    #: Answer compute requests analytically when the ring is empty.
    degrade: bool = True
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 2.0
    default_timeout_s: float = 30.0
    #: Reject joins whose machine fingerprint differs from ours — mixed
    #: fingerprints would break result byte-identity and cache dedupe.
    require_machine_match: bool = True
    jobs_dir: Optional[str] = None
    jobs_max_running: int = 1
    jobs_workers: "int | str | None" = 1


class ClusterState:
    """Membership + ring + assigner + per-node breakers, under one roof.

    Thread-safe: the coordinator's event loop and the job-runner
    threads both route through here.
    """

    def __init__(
        self,
        settings: CoordinatorSettings,
        machine_fingerprint: str,
        registry: Any = None,
    ):
        self.settings = settings
        self.machine_fingerprint = machine_fingerprint
        self.registry = registry or metrics()
        self.membership = Membership(
            lease_s=settings.lease_s, grace_s=settings.grace_s
        )
        self.ring = HashRing(vnodes=settings.vnodes)
        self.assigner = Assigner()
        self._breakers: Dict[str, CircuitBreaker] = {}

    # -- join / heartbeat -----------------------------------------------------
    def register(self, doc: Any) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(doc, dict) or not isinstance(doc.get("url"), str):
            return 400, {"error": "join body must carry a node url"}
        machine = str(doc.get("machine", ""))
        if (
            self.settings.require_machine_match
            and machine != self.machine_fingerprint
        ):
            self.registry.counter("cluster.joins_rejected").add(1)
            return 409, {
                "error": "machine fingerprint mismatch: node results "
                         "would not be byte-identical to this cluster's",
                "expected": self.machine_fingerprint,
                "got": machine,
            }
        node_id = doc.get("node_id") or None
        previous = (
            self.membership.get(node_id) if isinstance(node_id, str) else None
        )
        node = self.membership.join(
            url=doc["url"],
            machine=machine,
            capabilities=doc.get("capabilities") or {},
            node_id=node_id if isinstance(node_id, str) else None,
        )
        self.ring.add(node.node_id)
        self._breakers.pop(node.node_id, None)  # fresh slate on (re)join
        self.registry.counter("cluster.joins_accepted").add(1)
        flight().record(
            "cluster", "node_joined",
            node_id=node.node_id, url=node.url,
            generation=node.generation,
            rejoin=previous is not None,
        )
        self.refresh_gauges()
        return 200, {
            "node_id": node.node_id,
            "generation": node.generation,
            "lease_s": self.settings.lease_s,
        }

    def heartbeat(self, doc: Any) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(doc, dict):
            return 400, {"error": "heartbeat body must be an object"}
        verdict = self.membership.renew(
            str(doc.get("node_id", "")), int(doc.get("generation", -1))
        )
        self.registry.counter(
            "cluster.heartbeats", verdict=verdict
        ).add(1)
        return 200, {"status": verdict}

    # -- lease expiry ---------------------------------------------------------
    def tick(self) -> List[Tuple[str, str, str]]:
        """Advance lease expiries; apply ring/assigner consequences."""
        transitions = self.membership.tick()
        recorder = flight()
        for node_id, from_state, to_state in transitions:
            self.registry.counter(
                "cluster.membership_transitions", to=to_state
            ).add(1)
            recorder.record(
                "cluster", "membership_transition",
                node_id=node_id, from_state=from_state,
                to_state=to_state,
            )
            if to_state == DEAD:
                self.ring.remove(node_id)
                orphans = self.assigner.reassign_for(node_id)
                self.registry.counter("cluster.nodes_lost").add(1)
                if orphans:
                    self.registry.counter(
                        "cluster.chunks_reassigned"
                    ).add(len(orphans))
                recorder.record(
                    "cluster", "node_dead",
                    node_id=node_id, reassigned=len(orphans),
                )
                recorder.dump("node-dead", node_id=node_id)
        if transitions:
            self.refresh_gauges()
        return transitions

    # -- routing --------------------------------------------------------------
    def breaker_for(self, node_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(node_id)
        if breaker is None:
            breaker = self._breakers[node_id] = CircuitBreaker(
                name=f"node:{node_id}",
                failure_threshold=self.settings.breaker_threshold,
                cooldown_s=self.settings.breaker_cooldown_s,
                registry=self.registry,
            )
        return breaker

    def candidates(
        self, key: str, tried: List[NodeInfo]
    ) -> List[NodeInfo]:
        """The untried nodes for *key* in call order: ring order, ALIVE
        before SUSPECT.  Their breakers are the call policy's to ask."""
        skip = {node.node_id for node in tried}
        nodes = [
            self.membership.get(node_id)
            for node_id in self.ring.preference(key, count=len(self.ring))
            if node_id not in skip
        ]
        return [
            node for state in (ALIVE, SUSPECT) for node in nodes
            if node is not None and node.state == state
        ]

    def policy(self, hedge_delay_s: Optional[float] = None) -> CallPolicy:
        """A call policy over this cluster's nodes and their breakers."""
        return CallPolicy(
            attempts=self.settings.max_attempts,
            backoff_s=self.settings.retry_backoff_s,
            hedge_delay_s=hedge_delay_s,
            breaker_for=lambda node: self.breaker_for(node.node_id),
            registry=self.registry,
            name="cluster",
        )

    async def forward(
        self, node: NodeInfo, path: str, doc: Any
    ) -> Optional[Tuple[int, Any]]:
        """POST *doc* to *node* after probing ``cluster.assign``.

        ``None`` when the probe dropped the assignment before it reached
        the node, ``(0, None)`` when the transport failed.
        """
        decision = fire("cluster.assign")
        if decision is not None:
            if decision.mode == "slow":
                await asyncio.sleep(
                    decision.delay_s if decision.delay_s is not None else 0.02
                )
            elif decision.mode == "error":
                return None
        try:
            return await request_json(
                node.url, "POST", path, doc,
                timeout_s=self.settings.forward_timeout_s,
            )
        except ClusterHTTPError:
            return 0, None

    def note_failure(self, node: NodeInfo) -> Verdict:
        """Count a failed forward to *node* and classify it retryable (the
        call policy then feeds the node's breaker)."""
        self.registry.counter(
            "cluster.forward_failures", node=node.node_id
        ).add(1)
        return RETRY, None

    # -- introspection --------------------------------------------------------
    def refresh_gauges(self) -> None:
        counts = self.membership.counts()
        for state, count in counts.items():
            self.registry.gauge("cluster.nodes", state=state).set(
                float(count)
            )
        for node in self.membership.nodes():
            self.registry.gauge(
                "cluster.node_state", node=node.node_id
            ).set(_STATE_GAUGE.get(node.state, 2.0))

    def describe(self) -> Dict[str, Any]:
        counts = self.membership.counts()
        return {
            "status": "ok" if counts[ALIVE] else (
                "degraded" if counts[SUSPECT] else "empty"
            ),
            "machine": self.machine_fingerprint,
            "counts": counts,
            "nodes": [n.to_dict() for n in self.membership.nodes()],
            "ring": self.ring.describe(),
            "assigner": self.assigner.stats(),
        }


class ClusterJobExecutor:
    """Executor-shaped adapter that ships job chunks across the ring.

    Implements exactly the surface :func:`repro.jobs.manager.run_job`
    uses (``machine_fingerprint``, ``run_streaming``, ``close``).  Each
    chunk travels as ``(spec, start, count)``; the node's records come
    back with a digest the coordinator re-derives and registers with
    the assigner (first-write-wins).  A digest *conflict* raises — the
    job fails loudly rather than stream a wrong result.  When no node
    is dispatchable the chunk is computed on the local fallback
    executor: a cluster of zero nodes behaves exactly like ``repro job
    run`` on one box.

    Each chunk's attempts run on a fresh event loop in the job thread.
    They are never hedged: a chunk stuck on a frozen node waits for its
    forward timeout or the node's death.
    """

    def __init__(
        self,
        state: ClusterState,
        spec: Any,
        local: SweepExecutor,
    ):
        self.state = state
        self.spec = spec
        self.spec_doc = spec.to_dict()
        self.local = local
        self.policy = state.policy()

    @property
    def machine_fingerprint(self) -> str:
        return self.local.machine_fingerprint

    def close(self) -> None:
        self.local.close()

    def run_streaming(
        self,
        kind: str,
        payloads: Any,
        stage: str,
        sink: Any,
        chunk_size: int = 1024,
        checkpoint: Any = None,
        start_index: int = 0,
    ) -> int:
        done = 0
        index = start_index
        iterator = iter(payloads)
        while True:
            chunk = list(itertools.islice(iterator, max(1, chunk_size)))
            if not chunk:
                break
            records = self._resolve_chunk(kind, chunk, index, stage)
            for j, record in enumerate(records):
                sink(index + j, record)
            index += len(records)
            done += len(records)
            if checkpoint is not None:
                checkpoint(done)
        return done

    def _chunk_key(self, start: int, count: int) -> str:
        return case_digest(
            {
                "cluster_chunk": self.spec.spec_digest,
                "machine": self.machine_fingerprint,
                "start": start,
                "count": count,
            }
        )

    def _resolve_chunk(
        self, kind: str, chunk: List[tuple], start: int, stage: str
    ) -> List[dict]:
        key = self._chunk_key(start, len(chunk))
        outcome = asyncio.run(
            self.policy.call(
                lambda tried: self.state.candidates(key, tried),
                functools.partial(self._send_chunk, key, start, len(chunk)),
            )
        )
        if outcome.verdict == FATAL:
            raise RuntimeError(outcome.value)
        if outcome.ok:
            self.state.registry.counter("cluster.chunks_remote").add(1)
            return outcome.value
        # Ring empty or every candidate exhausted: degrade to local
        # compute (identical results — same machine fingerprint).
        self.state.registry.counter("cluster.chunks_local").add(1)
        return self.local.run(kind, chunk, stage)

    async def _send_chunk(
        self, key: str, start: int, count: int, node: NodeInfo
    ) -> Verdict:
        """One chunk attempt on *node*, classified for the policy."""
        state = self.state
        state.assigner.assign(key, node.node_id)
        answer = await state.forward(
            node, "/cluster/compute",
            {"spec": self.spec_doc, "start": start, "count": count},
        )
        if answer is None:
            state.assigner.release(key)
            return LOST, None
        status, doc = answer
        records = (
            doc.get("records")
            if status == 200 and isinstance(doc, dict) else None
        )
        if (
            not isinstance(records, list)
            or len(records) != count
            or doc.get("machine") != self.machine_fingerprint
            # A digest mismatch means the payload was damaged in
            # transit (or the node lied): never stream it.
            or case_digest(records) != doc.get("digest")
        ):
            state.assigner.release(key)
            return state.note_failure(node)
        verdict = state.assigner.complete(key, node.node_id, doc["digest"])
        if verdict == assign_mod.CONFLICT:
            state.registry.counter("cluster.chunk_conflicts").add(1)
            return FATAL, (
                f"conflicting results for chunk {key} (points "
                f"{start}..{start + count - 1}): two nodes disagree "
                "about a deterministic chunk — failing the job rather "
                "than stream a wrong result"
            )
        return USABLE, records


class ClusterJobManager(JobManager):
    """A :class:`JobManager` whose jobs execute across the ring."""

    def __init__(
        self,
        root: Any,
        machine: Any,
        state: ClusterState,
        cache: Any = None,
        workers: "int | str | None" = None,
        max_running: int = 1,
        fsync: bool = False,
    ):
        super().__init__(
            root, machine, cache=cache, workers=workers,
            max_running=max_running, fsync=fsync,
        )
        self.state = state

    def _make_executor(self, job: _ManagedJob) -> ClusterJobExecutor:
        local = SweepExecutor(
            self.machine, workers=self.workers, cache=self.cache
        )
        return ClusterJobExecutor(self.state, job.spec, local)


class CoordinatorHTTPServer(BaseHTTPServer):
    """The coordinator's HTTP surface.

    =========================  =========================================
    ``POST /cluster/join``     node registration (capability +
                               machine-fingerprint metadata)
    ``POST /cluster/heartbeat``  lease renewal
    ``GET  /healthz``          liveness + node counts
    ``GET  /health``           full cluster state (ring, members,
                               assigner); 503 when no node is ALIVE
    ``GET  /metrics``          telemetry registry (JSON or Prometheus)
    ``POST /simulate``         forwarded over the ring (call policy:
                               hedged retry, breakers; then degrade)
    ``POST /batch``            per-entry forwarding, one 200 envelope
    ``/jobs...``               durable jobs on the cluster executor
    =========================  =========================================
    """

    def __init__(
        self,
        machine: Any,
        settings: Optional[CoordinatorSettings] = None,
        host: str = "127.0.0.1",
        port: int = 8078,
        cache: Any = None,
    ):
        super().__init__(host, port)
        self.machine = machine
        self.settings = settings or CoordinatorSettings()
        self.registry = metrics()
        self.machine_fingerprint = fingerprint(
            machine_fingerprint_data(machine)
        )
        self.state = ClusterState(
            self.settings, self.machine_fingerprint, self.registry
        )
        self._forward = self.state.policy(self.settings.hedge_delay_s)
        self.jobs: Optional[ClusterJobManager] = None
        self._cache = cache
        self._tick_task: Optional[asyncio.Task] = None

    # -- lifecycle ------------------------------------------------------------
    async def _on_start(self) -> None:
        if self.settings.jobs_dir:
            self.jobs = ClusterJobManager(
                self.settings.jobs_dir,
                self.machine,
                self.state,
                cache=self._cache,
                workers=self.settings.jobs_workers,
                max_running=self.settings.jobs_max_running,
            )
        self._tick_task = asyncio.ensure_future(self._tick_forever())
        self.state.refresh_gauges()

    async def _on_stop(self) -> None:
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self.jobs is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.jobs.shutdown
            )

    async def _tick_forever(self) -> None:
        interval = max(0.05, self.settings.lease_s / 2.0)
        while True:
            await asyncio.sleep(interval)
            try:
                self.state.tick()
            except Exception:
                # The tick loop must survive anything: a failed tick
                # only delays expiry by one interval.
                self.registry.counter("cluster.tick_errors").add(1)

    # -- routing --------------------------------------------------------------
    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any]:
        path, _, query = path.partition("?")
        if path == "/cluster/join":
            if method != "POST":
                raise _HTTPError(405, "use POST /cluster/join")
            return self.state.register(self._decode(body))
        if path == "/cluster/heartbeat":
            if method != "POST":
                raise _HTTPError(405, "use POST /cluster/heartbeat")
            return self.state.heartbeat(self._decode(body))
        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "use GET /healthz")
            counts = self.state.membership.counts()
            return 200, {
                "status": "ok" if counts[ALIVE] else "degraded",
                "role": "coordinator",
                "nodes": counts,
            }
        if path == "/health":
            if method != "GET":
                raise _HTTPError(405, "use GET /health")
            doc = self.state.describe()
            healthy = doc["counts"][ALIVE] > 0
            return (200 if healthy else 503), doc
        if path == "/metrics":
            if method != "GET":
                raise _HTTPError(405, "use GET /metrics")
            publish_counts(self.registry, self.machine.trace, self._cache,
                           self.machine.values)
            if wants_prometheus(headers.get("accept", "")):
                text = prometheus_text(self.registry)
                return 200, _RawBody(PROM_CONTENT_TYPE, text.encode("utf-8"))
            return 200, {"metrics": self.registry.snapshot()}
        if path == "/simulate":
            if method != "POST":
                raise _HTTPError(405, "use POST /simulate")
            return await self._forward_simulate(body)
        if path == "/batch":
            if method != "POST":
                raise _HTTPError(405, "use POST /batch")
            return await self._forward_batch(self._decode(body))
        if path == "/jobs" or path.startswith("/jobs/"):
            return await self._route_jobs(method, path, query, body)
        raise _HTTPError(404, f"no route for {path}")

    def _jobs_manager(self) -> Any:
        if self.jobs is None:
            raise _HTTPError(
                503, "jobs disabled (start the coordinator with --jobs-dir)"
            )
        return self.jobs

    # -- forwarding -----------------------------------------------------------
    def _routing_key(self, request: Any) -> str:
        # Byte-for-byte the sweep executor's cache key, so the
        # coordinator's routing/degrade fingerprints line up with what
        # worker nodes (and chaos ground truth) report.
        kind, payload = request.payload()
        return fingerprint(
            {
                "version": CACHE_VERSION,
                "machine": self.machine_fingerprint,
                "kind": kind,
                "payload": payload,
            }
        )

    async def _forward_simulate(self, body: bytes) -> Tuple[int, Any]:
        obj = self._decode(body)
        try:
            request = parse_request(
                obj, default_timeout_s=self.settings.default_timeout_s
            )
        except ServiceValidationError as exc:
            self.registry.counter(
                "service.rejected", reason="invalid_request"
            ).add(1)
            request_id = ""
            if isinstance(obj, dict):
                request_id = str(obj.get("request_id", ""))[:64]
            response = SimResponse.error(
                request_id, "invalid_request", str(exc)
            )
            return response.http_status(), response.to_dict()
        key = self._routing_key(request)
        started = asyncio.get_running_loop().time()
        outcome = await self._forward.call(
            lambda tried: self.state.candidates(key, tried),
            functools.partial(self._forward_attempt, obj),
        )
        if outcome.ok:
            return outcome.value
        if self.settings.degrade:
            self.registry.counter(
                "cluster.degraded", reason="ring_unavailable"
            ).add(1)
            record = analytic_estimate(self.machine, request)
            response = SimResponse(
                status="ok",
                request_id=request.request_id,
                fingerprint=key,
                source="degraded",
                degraded=True,
                result=summarize_record(request, record),
                queue_seconds=0.0,
                service_seconds=round(
                    asyncio.get_running_loop().time() - started, 9
                ),
            )
            return 200, response.to_dict()
        response = SimResponse.error(
            request.request_id, "no_nodes",
            "no worker node is dispatchable and degradation is off",
        )
        return 503, response.to_dict()

    async def _forward_attempt(self, obj: Any, node: NodeInfo) -> Verdict:
        """One ``/simulate`` forward to *node*, classified for the policy:
        a 5xx or a transport error is retryable, any other answer is
        authoritative and passed through."""
        answer = await self.state.forward(node, "/simulate", obj)
        if answer is None:
            return LOST, None
        status, doc = answer
        if 0 < status < 500 and isinstance(doc, dict):
            self.registry.counter(
                "cluster.forwarded", node=node.node_id
            ).add(1)
            return USABLE, answer
        return self.state.note_failure(node)

    async def _forward_batch(self, obj: Any) -> Tuple[int, Any]:
        if not isinstance(obj, dict) or not isinstance(
            obj.get("requests"), list
        ):
            raise _HTTPError(400, "/batch body must be {'requests': [...]}")
        entries = obj["requests"]
        bodies = [
            json.dumps(entry, separators=(",", ":")).encode()
            for entry in entries
        ]
        results = await asyncio.gather(
            *(self._forward_simulate(body) for body in bodies)
        )
        return 200, {"responses": [doc for _status, doc in results]}
