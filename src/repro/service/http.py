"""HTTP/1.1 front end over ``asyncio.start_server`` (stdlib only).

A deliberately small server — enough protocol to serve JSON clients and
the load harness, nothing more:

==========================  ===============================================
``POST /simulate``          one request object -> one response object
``POST /batch``             ``{"requests": [...]}`` -> ``{"responses":
                            [...]}``
``GET  /healthz``           liveness + queue depth + cache summary
``GET  /metrics``           JSON snapshot of the telemetry metrics registry
``POST /jobs``              submit a durable streaming-sweep job (202)
``GET  /jobs``              list known jobs
``GET  /jobs/<id>``         one job's lifecycle status
``GET  /jobs/<id>/stream``  durable JSONL results from ``?offset=N``
                            (record offset; count lines to page)
``POST /jobs/<id>/resume``  requeue an interrupted job
``DELETE /jobs/<id>``       cancel (stops at the next checkpoint)
==========================  ===============================================

Status mapping: validation failures are 400, admission rejections 429
(``Retry-After`` included), queued-deadline expiry 504, compute failure
500.  ``/batch`` always answers 200 with per-request statuses inside, so
one bad request cannot mask its batch-mates.  Connections are keep-alive
(HTTP/1.1 default) with an idle timeout; request bodies are capped.

The protocol plumbing (connection loop, framing, keep-alive reaping,
the jobs routes) lives in :class:`BaseHTTPServer` so other front ends —
the cluster coordinator and worker node in :mod:`repro.cluster` — reuse
it verbatim and only supply their own ``_route``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from dataclasses import replace

from .._version import __version__
from ..faults.injector import fire
from ..obs.promtext import prometheus_text, wants_prometheus, PROM_CONTENT_TYPE
from ..obs.trace import TRACE_HEADER, TraceContext
from ..telemetry.exporters import publish_counts
from ..telemetry.state import get_telemetry
from .api import (
    ServiceValidationError, SimRequest, SimResponse, next_request_id,
    parse_request,
)
from .scheduler import ReductionService

__all__ = ["BaseHTTPServer", "ServiceHTTPServer"]

#: Largest accepted request body (a /batch of a few thousand requests).
MAX_BODY_BYTES = 4 << 20

#: Per-/batch cap: one HTTP client cannot occupy the whole admission queue.
MAX_BATCH_REQUESTS = 1024

#: Seconds an idle keep-alive connection may sit between requests.
IDLE_TIMEOUT_S = 60.0

#: Distinct request bodies whose parse result is memoized.
PARSE_CACHE_MAX = 4096


def _json_bytes(doc: Any) -> bytes:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


class _HTTPError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 410: "Gone", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _RawBody:
    """A pre-encoded response body with its own Content-Type.

    Routes return JSON-serializable documents by default; the few that
    negotiate another representation (Prometheus text on ``/metrics``)
    wrap it in this.
    """

    __slots__ = ("content_type", "payload")

    def __init__(self, content_type: str, payload: bytes):
        self.content_type = content_type
        self.payload = payload


class BaseHTTPServer:
    """Protocol plumbing shared by every repro HTTP front end.

    Subclasses implement ``_route`` (and optionally the ``_on_start`` /
    ``_on_stop`` lifecycle hooks and ``_jobs_manager`` for the /jobs
    routes).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8077,
        reuse_port: bool = False,
    ):
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ------------------------------------------------------------
    async def _on_start(self) -> None:
        """Hook: bring up whatever the routes serve (before binding)."""

    async def _on_stop(self) -> None:
        """Hook: tear down what ``_on_start`` brought up."""

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        await self._on_start()
        # backlog: hundreds of load-generator clients connect in the same
        # millisecond; the default backlog (100) drops SYNs, and the
        # retransmit timeout (~1 s) would dominate tail latency.
        # reuse_port: SO_REUSEPORT lets several shard processes listen on
        # one port and have the kernel balance connections across them
        # (see `repro serve --shards`).
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=1024,
            reuse_port=self.reuse_port or None,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._on_stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Idle reaping via one timer per connection instead of an
        # asyncio.wait_for per request: wait_for spawns a task + timer
        # every call, which dominates per-request overhead under load.
        loop = asyncio.get_running_loop()
        last_activity = loop.time()

        def _reap() -> None:
            nonlocal watchdog
            idle = loop.time() - last_activity
            if idle >= IDLE_TIMEOUT_S:
                writer.close()
            else:
                watchdog = loop.call_later(IDLE_TIMEOUT_S - idle, _reap)

        watchdog = loop.call_later(IDLE_TIMEOUT_S, _reap)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HTTPError as exc:
                    # Framing errors (oversized body, bad request line)
                    # leave the stream unsynchronized: answer and close.
                    await self._write_response(
                        writer, exc.status, {"error": str(exc)}, False
                    )
                    break
                if request is None:  # client closed cleanly
                    break
                last_activity = loop.time()
                decision = fire("service.http")
                if decision is not None:
                    if decision.mode == "disconnect":
                        # Simulate the server side dying mid-exchange:
                        # hang up with no response at all.
                        break
                    if decision.mode == "slow":
                        await asyncio.sleep(
                            decision.delay_s
                            if decision.delay_s is not None else 0.05
                        )
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                try:
                    status, doc = await self._route(
                        method, path, headers, body
                    )
                except _HTTPError as exc:
                    status, doc = exc.status, {"error": str(exc)}
                except Exception as exc:  # never kill the connection loop
                    status, doc = 500, {
                        "error": f"{type(exc).__name__}: {exc}"
                    }
                await self._write_response(writer, status, doc, keep_alive)
                last_activity = loop.time()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        finally:
            watchdog.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        # One await for the whole header block (vs. a readline per line).
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        lines = blob.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line: {lines[0]!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for text in lines[1:]:
            if not text:
                continue
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, f"body of {length} bytes exceeds cap")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        doc: Any,
        keep_alive: bool,
    ) -> None:
        if isinstance(doc, _RawBody):
            payload = doc.payload
            content_type = doc.content_type
        else:
            payload = _json_bytes(doc)
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Server: repro-service/{__version__}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if status == 429:
            headers.append("Retry-After: 1")
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + payload
        )
        await writer.drain()

    # -- routing --------------------------------------------------------------
    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any]:
        raise _HTTPError(404, f"no route for {path}")

    # -- durable jobs ---------------------------------------------------------
    def _jobs_manager(self) -> Any:
        raise _HTTPError(
            503, "jobs disabled (start the server with --jobs-dir)"
        )

    async def _route_jobs(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, Any]:
        """The job-lifecycle routes (see repro.jobs and docs/JOBS.md).

        Manager calls take locks and touch disk, so every one runs on
        the default thread pool — the event loop keeps serving
        ``/simulate`` while a submit recovers a large job directory.
        """
        from ..errors import SpecError

        manager = self._jobs_manager()
        loop = asyncio.get_running_loop()
        parts = [part for part in path.split("/") if part]
        if len(parts) == 1:  # /jobs
            if method == "POST":
                try:
                    from ..jobs import parse_job_spec

                    spec = parse_job_spec(self._decode(body))
                except SpecError as exc:
                    raise _HTTPError(400, str(exc)) from exc
                doc = await loop.run_in_executor(None, manager.submit, spec)
                return 202, doc
            if method == "GET":
                docs = await loop.run_in_executor(None, manager.list_jobs)
                return 200, {"jobs": docs}
            raise _HTTPError(405, "use POST /jobs or GET /jobs")
        job_id = parts[1]
        if len(parts) == 2:  # /jobs/<id>
            if method == "GET":
                doc = await loop.run_in_executor(None, manager.get, job_id)
            elif method == "DELETE":
                doc = await loop.run_in_executor(None, manager.cancel, job_id)
            else:
                raise _HTTPError(405, "use GET or DELETE /jobs/<id>")
            if doc is None:
                raise _HTTPError(404, f"no job {job_id}")
            return 200, doc
        if len(parts) == 3 and parts[2] == "stream":  # /jobs/<id>/stream
            if method != "GET":
                raise _HTTPError(405, "use GET /jobs/<id>/stream")
            offset = self._query_int(query, "offset", 0)
            limit = self._query_int(query, "limit", 4096)
            data = await loop.run_in_executor(
                None, manager.stream, job_id, offset, limit
            )
            if data is None:
                raise _HTTPError(404, f"no job {job_id}")
            return 200, _RawBody("application/x-ndjson", data)
        if len(parts) == 3 and parts[2] == "resume":  # /jobs/<id>/resume
            if method != "POST":
                raise _HTTPError(405, "use POST /jobs/<id>/resume")
            doc = await loop.run_in_executor(None, manager.resume, job_id)
            if doc is None:
                raise _HTTPError(404, f"no job {job_id}")
            return 202, doc
        raise _HTTPError(404, f"no route for {path}")

    @staticmethod
    def _query_int(query: str, name: str, default: int) -> int:
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == name:
                try:
                    parsed = int(value)
                except ValueError as exc:
                    raise _HTTPError(
                        400, f"query parameter {name} must be an integer"
                    ) from exc
                if parsed < 0:
                    raise _HTTPError(400, f"{name} must be >= 0")
                return parsed
        return default

    @staticmethod
    def _decode(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HTTPError(400, f"body is not valid JSON: {exc}") from exc


class ServiceHTTPServer(BaseHTTPServer):
    """Serves one :class:`ReductionService` instance over HTTP."""

    def __init__(
        self,
        service: ReductionService,
        host: str = "127.0.0.1",
        port: int = 8077,
        reuse_port: bool = False,
    ):
        super().__init__(host, port, reuse_port=reuse_port)
        self.service = service
        # Sweep replays repeat identical /simulate bodies thousands of
        # times; memoizing the validated parse by raw body bytes removes
        # json.loads + parse_request from the cache-hit path.  Values are
        # (frozen request, client-supplied-id?) — generated ids must stay
        # unique, so those are re-stamped per hit.
        self._parse_cache: Dict[bytes, Tuple[SimRequest, bool]] = {}

    async def _on_start(self) -> None:
        await self.service.start()

    async def _on_stop(self) -> None:
        await self.service.stop()

    # -- routing --------------------------------------------------------------
    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any]:
        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "use GET /healthz")
            return 200, self.service.health()
        if path == "/health":
            if method != "GET":
                raise _HTTPError(405, "use GET /health")
            healthy, doc = self.service.slo_report()
            return (200 if healthy else 503), doc
        if path == "/metrics":
            if method != "GET":
                raise _HTTPError(405, "use GET /metrics")
            executor = self.service.executor
            publish_counts(
                self.service.registry,
                trace=executor.machine.trace,
                result_cache=executor.cache,
                values=executor.machine.values,
            )
            if wants_prometheus(headers.get("accept", "")):
                text = prometheus_text(self.service.registry)
                return 200, _RawBody(PROM_CONTENT_TYPE, text.encode("utf-8"))
            return 200, {"metrics": self.service.registry.snapshot()}
        if path == "/simulate":
            if method != "POST":
                raise _HTTPError(405, "use POST /simulate")
            response = await self._simulate_body(body, headers)
            return response.http_status(), response.to_dict()
        if path == "/batch":
            if method != "POST":
                raise _HTTPError(405, "use POST /batch")
            return await self._simulate_batch(self._decode(body), headers)
        if path == "/jobs" or path.startswith("/jobs/"):
            return await self._route_jobs(method, path, query, body)
        raise _HTTPError(404, f"no route for {path}")

    def _jobs_manager(self) -> Any:
        manager = self.service.jobs
        if manager is None:
            raise _HTTPError(
                503, "jobs disabled (start the server with --jobs-dir)"
            )
        return manager

    async def _simulate_body(
        self, body: bytes, headers: Dict[str, str]
    ) -> SimResponse:
        cached = self._parse_cache.get(body)
        if cached is None:
            obj = self._decode(body)
            try:
                request = parse_request(
                    obj,
                    default_timeout_s=self.service.settings.default_timeout_s,
                )
            except ServiceValidationError:
                # shared error path
                return await self._simulate_one(obj, headers)
            explicit_id = isinstance(obj, dict) and "request_id" in obj
            if len(self._parse_cache) >= PARSE_CACHE_MAX:
                self._parse_cache.clear()  # steady workloads re-warm fast
            self._parse_cache[body] = (request, explicit_id)
        else:
            request, explicit_id = cached
            if not explicit_id:
                request = replace(request, request_id=next_request_id())
        return await self._submit(request, headers)

    async def _submit(
        self, request: SimRequest, headers: Dict[str, str]
    ) -> SimResponse:
        """Submit, minting/propagating a trace context when sampling.

        The context rides the ``x-repro-trace`` *header* (never the
        JSON body — the API rejects unknown body fields, and the parse
        memo above stays valid because identical bodies parse the same
        regardless of tracing).  A sampled request gets an
        ``http.request`` root span here; everything below hangs off it.
        """
        service = self.service
        if not service.tracing:
            return await service.submit(request)
        ctx = service.trace_for(
            request, TraceContext.from_header(headers.get(TRACE_HEADER))
        )
        if ctx is None:
            return await service.submit(request)
        recorder = get_telemetry().recorder
        hspan = recorder.open(
            "http.request",
            category="service",
            parent_id=ctx.parent_id,
            trace_id=ctx.trace_id,
            request_id=request.request_id,
        )
        try:
            response = await service.submit(
                request, trace=ctx.child(hspan.span_id)
            )
        except BaseException:
            recorder.close(hspan, error=True)
            raise
        recorder.close(hspan, status=response.status)
        return response

    async def _simulate_one(
        self, obj: Any, headers: Dict[str, str]
    ) -> SimResponse:
        try:
            request = parse_request(
                obj, default_timeout_s=self.service.settings.default_timeout_s
            )
        except ServiceValidationError as exc:
            self.service.registry.counter(
                "service.rejected", reason="invalid_request"
            ).add(1)
            request_id = ""
            if isinstance(obj, dict):
                request_id = str(obj.get("request_id", ""))[:64]
            return SimResponse.error(request_id, "invalid_request", str(exc))
        return await self._submit(request, headers)

    async def _simulate_batch(
        self, obj: Any, headers: Dict[str, str]
    ) -> Tuple[int, Any]:
        if not isinstance(obj, dict) or not isinstance(
            obj.get("requests"), list
        ):
            raise _HTTPError(400, "/batch body must be {'requests': [...]}")
        entries = obj["requests"]
        if len(entries) > MAX_BATCH_REQUESTS:
            raise _HTTPError(
                413, f"batch of {len(entries)} exceeds {MAX_BATCH_REQUESTS}"
            )
        responses = await asyncio.gather(
            *(self._simulate_one(entry, headers) for entry in entries)
        )
        return 200, {"responses": [r.to_dict() for r in responses]}
