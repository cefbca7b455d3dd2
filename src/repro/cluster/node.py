"""The worker node: the existing service stack + cluster registration.

A node is a full :class:`~repro.service.http.ServiceHTTPServer` (same
admission control, batcher, breaker, degrade, jobs routes) with two
cluster additions:

- ``GET /cluster/info`` — identity + capability + machine-fingerprint
  metadata, and ``POST /cluster/compute`` — execute one job chunk
  ``{"spec": ..., "start": N, "count": M}``.  The chunk travels as the
  *spec* plus an index range, never as serialized payloads: the node
  reconstructs the exact payload tuples from the spec, so its records
  are byte-identical to what the coordinator (or a single-node run)
  would have computed locally.
- a :class:`NodeAgent` that registers with the coordinator over HTTP
  (``POST /cluster/join`` with capability + machine-fingerprint
  metadata) and then renews its lease on a timer.  The ``node.heartbeat``
  fault point fires on every beat (modes: ``drop`` — skip the renewal,
  the membership-expiry path; ``slow`` — delay it), and a heartbeat
  answered ``unknown``/``stale`` triggers a re-join: the node was
  declared dead (or superseded) and must re-enter through the front
  door rather than zombie-renew.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, Optional, Tuple

from ..errors import SpecError
from ..faults.injector import fire
from ..obs.flight import flight
from ..telemetry.state import metrics
from ..verify.fuzzer import case_digest
from ..service.http import ServiceHTTPServer, _HTTPError
from ._http import ClusterHTTPError, request_json

__all__ = ["NodeAgent", "NodeHTTPServer", "MAX_CHUNK_POINTS"]

#: Largest chunk a node accepts in one /cluster/compute call.
MAX_CHUNK_POINTS = 4096


class NodeHTTPServer(ServiceHTTPServer):
    """A worker node's HTTP surface: the service routes + /cluster/*."""

    def __init__(self, *args: Any, node_id: str = "", **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.node_id = node_id
        # Chunks must not interleave with each other on the shared
        # executor; the coordinator dispatches them one at a time per
        # node anyway, so serializing here costs nothing and keeps the
        # streaming order deterministic under hedged duplicates.
        self._compute_lock = asyncio.Lock()

    def info(self) -> Dict[str, Any]:
        executor = self.service.executor
        return {
            "node_id": self.node_id,
            "machine": executor.machine_fingerprint,
            "capabilities": {
                "workers": executor.workers,
                "cache": executor.cache is not None,
                "experiments": ["gpu", "um"],
            },
        }

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any]:
        clean, _, _query = path.partition("?")
        if clean == "/cluster/info":
            if method != "GET":
                raise _HTTPError(405, "use GET /cluster/info")
            return 200, self.info()
        if clean == "/cluster/compute":
            if method != "POST":
                raise _HTTPError(405, "use POST /cluster/compute")
            return await self._compute_chunk(self._decode(body))
        return await super()._route(method, path, headers, body)

    async def _compute_chunk(self, obj: Any) -> Tuple[int, Any]:
        if not isinstance(obj, dict):
            raise _HTTPError(400, "/cluster/compute body must be an object")
        try:
            from ..jobs.api import parse_job_spec

            spec = parse_job_spec(obj.get("spec"))
        except SpecError as exc:
            raise _HTTPError(400, f"bad chunk spec: {exc}") from exc
        try:
            start = int(obj.get("start", 0))
            count = int(obj.get("count", 0))
        except (TypeError, ValueError) as exc:
            raise _HTTPError(400, "start/count must be integers") from exc
        if start < 0 or count < 1:
            raise _HTTPError(400, "need start >= 0 and count >= 1")
        if count > MAX_CHUNK_POINTS:
            raise _HTTPError(413, f"chunk of {count} exceeds cap")
        if start + count > spec.total_points():
            raise _HTTPError(400, "chunk range beyond the spec's grid")
        executor = self.service.executor
        payloads = list(itertools.islice(spec.payloads(start), count))
        loop = asyncio.get_running_loop()
        async with self._compute_lock:
            records = await loop.run_in_executor(
                None,
                lambda: executor.run(
                    "gpu_point", payloads, stage=f"chunk:{start}"
                ),
            )
        for index, record in enumerate(records):
            if isinstance(record, dict) and record.get("failed"):
                # A failed point poisons byte-identity; refuse the whole
                # chunk so the coordinator retries it elsewhere.
                raise _HTTPError(
                    500,
                    f"point {start + index} failed: "
                    f"{record.get('error', 'unknown')}",
                )
        metrics().counter("cluster.chunks_served").add(1)
        return 200, {
            "node_id": self.node_id,
            "machine": executor.machine_fingerprint,
            "start": start,
            "count": count,
            "records": records,
            "digest": case_digest(records),
        }


class NodeAgent:
    """Join the coordinator and keep the lease renewed.

    Runs as one asyncio task next to the node's server.  Lifecycle:
    join (retrying with backoff until the coordinator answers), then
    beat every ``lease_s / 3``; any ``unknown``/``stale`` verdict or a
    run of transport failures longer than the lease drops back to the
    join phase with a fresh generation.
    """

    def __init__(
        self,
        coordinator_url: str,
        server: NodeHTTPServer,
        node_id: Optional[str] = None,
        timeout_s: float = 10.0,
    ):
        self.coordinator_url = coordinator_url.rstrip("/")
        self.server = server
        self.node_id = node_id
        self.generation = 0
        self.lease_s = 3.0
        self.timeout_s = timeout_s
        self.joined = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    @property
    def node_url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _join(self) -> None:
        """Register, retrying until the coordinator accepts us."""
        delay = 0.2
        info = self.server.info()
        while True:
            try:
                status, doc = await request_json(
                    self.coordinator_url, "POST", "/cluster/join",
                    {
                        "node_id": self.node_id,
                        "url": self.node_url,
                        "machine": info["machine"],
                        "capabilities": info["capabilities"],
                    },
                    timeout_s=self.timeout_s,
                )
            except ClusterHTTPError:
                metrics().counter("cluster.join_errors").add(1)
                await asyncio.sleep(delay)
                delay = min(5.0, delay * 2)
                continue
            if status != 200 or not isinstance(doc, dict):
                # e.g. machine-fingerprint mismatch: joining would break
                # byte-identity, so surface loudly and keep retrying (an
                # operator fixing the config should not need a restart).
                metrics().counter("cluster.join_rejected").add(1)
                flight().record(
                    "cluster", "join_rejected",
                    status=status, error=(doc or {}).get("error"),
                )
                await asyncio.sleep(min(5.0, delay * 4))
                continue
            self.node_id = doc["node_id"]
            self.generation = int(doc["generation"])
            self.lease_s = float(doc.get("lease_s", self.lease_s))
            self.server.node_id = self.node_id
            self.joined.set()
            metrics().counter("cluster.joins").add(1)
            flight().record(
                "cluster", "joined",
                node_id=self.node_id, generation=self.generation,
                coordinator=self.coordinator_url,
            )
            return

    async def _run(self) -> None:
        await self._join()
        misses = 0
        while True:
            await asyncio.sleep(self.lease_s / 3.0)
            decision = fire("node.heartbeat")
            if decision is not None:
                if decision.mode == "drop":
                    # The partition shape: the beat never leaves the
                    # node; the coordinator's lease clock keeps running.
                    metrics().counter("cluster.heartbeats_dropped").add(1)
                    continue
                if decision.mode == "slow":
                    await asyncio.sleep(
                        decision.delay_s
                        if decision.delay_s is not None else 0.05
                    )
            try:
                _status, doc = await request_json(
                    self.coordinator_url, "POST", "/cluster/heartbeat",
                    {"node_id": self.node_id, "generation": self.generation},
                    timeout_s=self.timeout_s,
                )
            except ClusterHTTPError:
                misses += 1
                metrics().counter("cluster.heartbeat_errors").add(1)
                if misses * (self.lease_s / 3.0) > self.lease_s:
                    # Long enough that the coordinator may have expired
                    # us; rejoin rather than renew into a stale lease.
                    self.joined.clear()
                    await self._join()
                    misses = 0
                continue
            misses = 0
            verdict = (doc or {}).get("status")
            if verdict in ("unknown", "stale"):
                metrics().counter(
                    "cluster.heartbeat_rejected", verdict=verdict
                ).add(1)
                self.joined.clear()
                await self._join()
            else:
                metrics().counter("cluster.heartbeats").add(1)
