"""End-to-end distributed tracing, /health, and /metrics negotiation.

The trace topology test is the PR's acceptance criterion: sampled
requests submitted concurrently coalesce into one micro-batch whose
compute subtree (dispatch -> stage -> pool worker -> slab evaluation)
crosses an OS-process boundary, and the whole tree stays connected —
every hop reachable by parent links, every request linked to its batch
by a flow edge, and the exported Chrome trace valid under the shipped
validator.
"""

import asyncio
import importlib.util
import json
from pathlib import Path

from repro.obs.promtext import PROM_CONTENT_TYPE
from repro.obs.trace import TRACE_HEADER, TraceContext
from repro.service import ReductionService, ServiceHTTPServer, ServiceSettings
from repro.service.api import parse_request
from repro.sweep.executor import SweepExecutor
from repro.sweep.result_cache import ResultCache
from repro.telemetry import write_chrome_trace
from repro.telemetry.metrics import MetricsRegistry

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "validate_trace", REPO_ROOT / "tools" / "validate_trace.py"
)
validate_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(validate_trace)

#: Bottom-up parent chain from the worker-side slab span to the batch.
EXPECTED_CHAIN = [
    "slab.evaluate",
    "sweep.point",
    "sweep.stage",
    "scheduler.dispatch",
    "service.batch",
]


def _service(machine, tmp_path, **overrides):
    settings = dict(
        trace_sample=1.0, batch_window_s=0.05, default_timeout_s=60.0
    )
    settings.update(overrides)
    executor = SweepExecutor(
        machine, workers=2, cache=ResultCache(tmp_path / "cache")
    )
    return ReductionService(
        machine,
        executor=executor,
        settings=ServiceSettings(**settings),
        registry=MetricsRegistry(),
    )


def _requests(n):
    return [
        parse_request(
            {"elements": 65536, "teams": 64 << i, "trials": 2,
             "client_id": "obs-test"}
        )
        for i in range(n)
    ]


def _run_traced_batch(machine, tmp_path):
    service = _service(machine, tmp_path)

    async def scenario():
        try:
            requests = _requests(4)
            contexts = [service.trace_for(r) for r in requests]
            assert all(ctx is not None for ctx in contexts)
            responses = await asyncio.gather(
                *(service.submit(r, trace=c)
                  for r, c in zip(requests, contexts))
            )
            return contexts, responses
        finally:
            await service.stop()

    return asyncio.run(scenario())


class TestTraceTopology:
    def test_one_batch_links_every_request_across_processes(
        self, telemetry, machine, tmp_path
    ):
        contexts, responses = _run_traced_batch(machine, tmp_path)
        assert all(r.status == "ok" for r in responses)
        assert all(r.source == "computed" for r in responses)

        spans = telemetry.recorder.snapshot()
        by_id = {sp.span_id: sp for sp in spans}
        by_name = {}
        for sp in spans:
            by_name.setdefault(sp.name, []).append(sp)

        # Every sampled request produced its own root span carrying its
        # trace id and a flow-out mark toward the batch.
        request_spans = by_name["service.request"]
        assert len(request_spans) == 4
        assert sorted(
            sp.attributes["trace_id"] for sp in request_spans
        ) == sorted(ctx.trace_id for ctx in contexts)
        for sp in request_spans:
            assert sp.attributes["flow_out"] == sp.attributes["trace_id"]

        # One batch coalesced all four, linked by flow-in edges.
        [batch_span] = by_name["service.batch"]
        assert sorted(batch_span.attributes["flow_in"]) == sorted(
            ctx.trace_id for ctx in contexts
        )
        assert batch_span.attributes["unique"] == 4

        # The worker-side slab span walks up to the batch through an
        # unbroken parent chain.
        slab_spans = by_name["slab.evaluate"]
        assert slab_spans, "no worker-side slab spans recorded"
        walk = slab_spans[0]
        chain = [walk.name]
        while walk.parent_id is not None:
            walk = by_id[walk.parent_id]
            chain.append(walk.name)
        assert chain == EXPECTED_CHAIN

        # ... and that chain crosses an OS-process boundary.
        pids = {by_name[name][0].pid for name in EXPECTED_CHAIN}
        assert len(pids) >= 2

    def test_exported_trace_validates_with_flow_events(
        self, telemetry, machine, tmp_path, capsys
    ):
        _run_traced_batch(machine, tmp_path)
        path = write_chrome_trace(
            tmp_path / "trace.json", telemetry.recorder.snapshot()
        )
        doc = json.loads(path.read_text(encoding="utf-8"))
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert "s" in phases and "f" in phases
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == 4  # one per sampled request
        assert len(finishes) == 4  # the batch joins each flow
        assert {e["id"] for e in finishes} <= {e["id"] for e in starts}
        assert all(e.get("bp") == "e" for e in finishes)
        # The shipped validator (schema + semantic checks) accepts it.
        assert validate_trace.main([str(path)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_unsampled_service_records_nothing(
        self, telemetry, machine, tmp_path
    ):
        service = _service(machine, tmp_path, trace_sample=0.0)
        assert service.tracing is False

        async def scenario():
            try:
                [request] = _requests(1)
                assert service.trace_for(request) is None
                response = await service.submit(request)
                assert response.status == "ok"
            finally:
                await service.stop()

        asyncio.run(scenario())
        names = {sp.name for sp in telemetry.recorder.snapshot()}
        assert "service.request" not in names
        assert "service.batch" not in names


# -- HTTP layer ---------------------------------------------------------------


async def _recv_raw(reader):
    blob = await reader.readuntil(b"\r\n\r\n")
    lines = blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for text in lines[1:]:
        if text:
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _roundtrip(server, method, path, doc=None, extra=()):
    body = json.dumps(doc).encode() if doc is not None else b""
    head = [f"{method} {path} HTTP/1.1", "Host: t"]
    head.extend(extra)
    head.append(f"Content-Length: {len(body)}")
    payload = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(payload)
        await writer.drain()
        return await _recv_raw(reader)
    finally:
        writer.close()


def _http(machine, tmp_path, scenario, **overrides):
    async def wrapped():
        service = _service(machine, tmp_path, **overrides)
        server = ServiceHTTPServer(service, host="127.0.0.1", port=0)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(wrapped())


SIM = {"elements": 4096, "teams": 64, "trials": 2}


class TestHealthEndpoint:
    def test_health_without_slo_engine_is_trivially_healthy(
        self, machine, tmp_path
    ):
        async def scenario(server):
            return await _roundtrip(server, "GET", "/health")

        status, _, body = _http(
            machine, tmp_path, scenario, trace_sample=0.0
        )
        doc = json.loads(body)
        assert status == 200
        assert doc["healthy"] is True
        assert doc["slo_enabled"] is False

    def test_health_healthy_with_engine(self, machine, tmp_path):
        async def scenario(server):
            await _roundtrip(server, "POST", "/simulate", SIM)
            server.service.tsdb.sample()
            return await _roundtrip(server, "GET", "/health")

        # A lenient explicit latency objective: a cold compute on a slow
        # CI machine must not 503 the healthy-path assertion.  This also
        # exercises slo_config plumbing end to end.
        status, _, body = _http(
            machine, tmp_path, scenario,
            trace_sample=0.0, tsdb_interval_s=60.0,
            slo_config=json.dumps([
                {"name": "error-rate", "signal": "error_rate",
                 "threshold": 0.01, "windows": [60, 300]},
                {"name": "latency-p99", "signal": "latency_p99",
                 "threshold": 30.0, "windows": [60]},
            ]),
        )
        doc = json.loads(body)
        assert status == 200
        assert doc["healthy"] is True
        assert doc["slo_enabled"] is True
        assert doc["frames"] >= 2
        assert {o["name"] for o in doc["objectives"]} == {
            "error-rate", "latency-p99",
        }
        assert doc["service"]["status"] == "ok"

    def test_health_violating_is_503(self, machine, tmp_path):
        async def scenario(server):
            registry = server.service.registry
            registry.counter("service.requests").add(10)
            registry.counter("service.completed", status="error").add(5)
            server.service.tsdb.sample()
            return await _roundtrip(server, "GET", "/health")

        status, _, body = _http(
            machine, tmp_path, scenario,
            trace_sample=0.0, tsdb_interval_s=60.0,
        )
        doc = json.loads(body)
        assert status == 503
        assert doc["healthy"] is False
        alerting = [o["name"] for o in doc["objectives"] if o["alerting"]]
        assert "error-rate" in alerting


class TestMetricsNegotiation:
    def test_default_stays_json(self, machine, tmp_path):
        async def scenario(server):
            await _roundtrip(server, "POST", "/simulate", SIM)
            return await _roundtrip(server, "GET", "/metrics")

        status, headers, body = _http(
            machine, tmp_path, scenario, trace_sample=0.0
        )
        assert status == 200
        assert headers["content-type"] == "application/json"
        names = {m["name"] for m in json.loads(body)["metrics"]}
        assert "service.requests" in names

    def test_metrics_and_profile_snapshot_publish_the_same_names(
        self, fresh_machine, tmp_path, telemetry, capsys
    ):
        """/metrics and an exported profile carry one set of names for
        the counts the sim trace and the two caches keep."""
        from repro.cli import main

        def published(metrics):
            return {
                m["name"] for m in metrics
                if m["name"].startswith(
                    ("sim.", "compiler.cache.", "sweep.result_cache.")
                )
            }

        async def scenario(server):
            await _roundtrip(server, "POST", "/simulate", SIM)
            return await _roundtrip(server, "GET", "/metrics")

        _, _, body = _http(fresh_machine, tmp_path, scenario, trace_sample=0.0)
        served = published(json.loads(body)["metrics"])

        snapshot = tmp_path / "profile.json"
        assert main([
            "profile", "run", "--snapshot-out", str(snapshot),
            "--", "--functional-cap", "65536",
            "--cache-dir", str(tmp_path / "cli-cache"),
            "sweep", "C1", "--trials", "2",
        ]) == 0
        capsys.readouterr()
        profiled = published(json.loads(snapshot.read_text())["metrics"])
        assert served == profiled
        assert {
            "sim.kernel_launches", "compiler.cache.hits",
            "sweep.result_cache.hits", "sweep.result_cache.quarantined",
        } <= served

    def test_accept_text_plain_serves_prometheus(self, machine, tmp_path):
        async def scenario(server):
            await _roundtrip(server, "POST", "/simulate", SIM)
            return await _roundtrip(
                server, "GET", "/metrics", extra=("Accept: text/plain",)
            )

        status, headers, body = _http(
            machine, tmp_path, scenario, trace_sample=0.0
        )
        assert status == 200
        assert headers["content-type"] == PROM_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE repro_service_requests counter" in text
        assert "repro_service_requests 1" in text
        assert 'repro_build_info{' in text
        assert 'le="+Inf"' in text


class TestTraceHeader:
    def test_incoming_header_wins_and_parents_the_root(
        self, telemetry, machine, tmp_path
    ):
        upstream = TraceContext(
            trace_id="fe" * 16, parent_id="99-1-1", sampled=True
        )

        async def scenario(server):
            return await _roundtrip(
                server, "POST", "/simulate", SIM,
                extra=(f"{TRACE_HEADER}: {upstream.to_header()}",),
            )

        status, _, _ = _http(machine, tmp_path, scenario)
        assert status == 200
        [http_span] = [
            sp for sp in telemetry.recorder.snapshot()
            if sp.name == "http.request"
        ]
        assert http_span.attributes["trace_id"] == upstream.trace_id
        assert http_span.parent_id == upstream.parent_id

    def test_caller_veto_suppresses_tracing(
        self, telemetry, machine, tmp_path
    ):
        veto = TraceContext(trace_id="fe" * 16, sampled=False)

        async def scenario(server):
            return await _roundtrip(
                server, "POST", "/simulate", SIM,
                extra=(f"{TRACE_HEADER}: {veto.to_header()}",),
            )

        status, _, _ = _http(machine, tmp_path, scenario)
        assert status == 200
        names = {sp.name for sp in telemetry.recorder.snapshot()}
        assert "http.request" not in names
        assert "service.request" not in names
