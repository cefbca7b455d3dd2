"""HTTP front end: routes, status mapping, keep-alive, parse memo."""

import asyncio
import json

from repro.service import ReductionService, ServiceHTTPServer, ServiceSettings
from repro.sim.values import LEVEL_BUDGET_BYTES
from repro.sweep.executor import SweepExecutor
from repro.sweep.result_cache import ResultCache
from repro.telemetry.metrics import MetricsRegistry


def _server(machine, tmp_path):
    executor = SweepExecutor(
        machine, workers=1, cache=ResultCache(tmp_path / "cache")
    )
    service = ReductionService(
        machine,
        executor=executor,
        settings=ServiceSettings(),
        registry=MetricsRegistry(),
    )
    return ServiceHTTPServer(service, host="127.0.0.1", port=0)


async def _recv(reader):
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
    return status, headers, json.loads(body) if body else None


def _encode(method, path, body=b"", extra=()):
    head = [f"{method} {path} HTTP/1.1", "Host: t"]
    head.extend(extra)
    head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def _roundtrip(server, method, path, doc=None, extra=()):
    body = json.dumps(doc).encode() if doc is not None else b""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(_encode(method, path, body, extra))
        await writer.drain()
        return await _recv(reader)
    finally:
        writer.close()


def _run(machine, tmp_path, scenario):
    async def wrapped():
        server = _server(machine, tmp_path)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(wrapped())


SIM = {"elements": 4096, "teams": 64, "trials": 2}


class TestRoutes:
    def test_healthz(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(server, "GET", "/healthz")

        status, _, doc = _run(machine, tmp_path, scenario)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["queue_depth"] == 0

    def test_metrics_snapshot(self, machine, tmp_path):
        async def scenario(server):
            await _roundtrip(server, "POST", "/simulate", SIM)
            return await _roundtrip(server, "GET", "/metrics")

        status, _, doc = _run(machine, tmp_path, scenario)
        assert status == 200
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["service.requests"]["value"] == 1
        assert by_name["service.computed"]["value"] == 1

    def test_metrics_show_the_value_layer(self, fresh_machine, tmp_path):
        # Serve-style fresh float points, one request each: the three C3
        # points share one thread level of 8-element chunks, so later
        # requests read it from the machine's value layer.
        points = [("C3", 128, 1, 64), ("C3", 256, 2, 64), ("C3", 512, 4, 64),
                  ("C4", 1024, 8, 128)]

        async def scenario(server):
            for case, teams, v, threads in points:
                status, _, doc = await _roundtrip(
                    server, "POST", "/simulate",
                    {"case": case, "teams": teams, "v": v,
                     "threads": threads})
                assert (status, doc["source"]) == (200, "computed")
            return await _roundtrip(server, "GET", "/metrics")

        status, _, doc = _run(fresh_machine, tmp_path, scenario)
        assert status == 200
        by_name = {m["name"]: m["value"] for m in doc["metrics"]
                   if m["name"].startswith("sim.values.")}
        assert by_name["sim.values.level_hits"] == 2
        assert by_name["sim.values.level_misses"] == 2
        assert 0 < by_name["sim.values.level_bytes"] <= LEVEL_BUDGET_BYTES
        # The service prices its points without verification.
        assert by_name["sim.values.reference_misses"] == 0
        assert by_name["sim.values.values"] == len(points)

    def test_simulate_ok(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(server, "POST", "/simulate", SIM)

        status, headers, doc = _run(machine, tmp_path, scenario)
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert doc["status"] == "ok"
        assert doc["source"] == "computed"
        assert doc["result"]["bandwidth_gbs"] > 0
        assert doc["result"]["summary"]["trials"] == 2

    def test_simulate_validation_error_is_400(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(
                server, "POST", "/simulate", {"elements": -5}
            )

        status, _, doc = _run(machine, tmp_path, scenario)
        assert status == 400
        assert doc["status"] == "error"
        assert doc["reason"] == "invalid_request"

    def test_simulate_malformed_json_is_400(self, machine, tmp_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(_encode("POST", "/simulate", b"{nope"))
                await writer.drain()
                return await _recv(reader)
            finally:
                writer.close()

        status, _, doc = _run(machine, tmp_path, scenario)
        assert status == 400
        assert "JSON" in doc["error"]

    def test_batch_mixes_good_and_bad(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(
                server, "POST", "/batch",
                {"requests": [SIM, {"elements": 0}]},
            )

        status, _, doc = _run(machine, tmp_path, scenario)
        assert status == 200  # per-request statuses live inside
        statuses = [r["status"] for r in doc["responses"]]
        assert statuses == ["ok", "error"]
        assert doc["responses"][1]["reason"] == "invalid_request"

    def test_batch_requires_request_list(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(server, "POST", "/batch", {"nope": 1})

        status, _, doc = _run(machine, tmp_path, scenario)
        assert status == 400

    def test_unknown_route_404(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(server, "GET", "/nope")

        status, _, _ = _run(machine, tmp_path, scenario)
        assert status == 404

    def test_wrong_method_405(self, machine, tmp_path):
        async def scenario(server):
            first = await _roundtrip(server, "POST", "/healthz")
            second = await _roundtrip(server, "GET", "/simulate")
            return first, second

        (s1, _, _), (s2, _, _) = _run(machine, tmp_path, scenario)
        assert (s1, s2) == (405, 405)

    def test_oversized_body_413(self, machine, tmp_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(
                    _encode("POST", "/simulate", b"",
                            extra=("X-Pad: 1",)).replace(
                        b"Content-Length: 0", b"Content-Length: 99999999"
                    )
                )
                await writer.drain()
                return await _recv(reader)
            finally:
                writer.close()

        status, _, _ = _run(machine, tmp_path, scenario)
        assert status == 413


class TestConnectionBehavior:
    def test_keep_alive_serves_multiple_requests(self, machine, tmp_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                body = json.dumps(SIM).encode()
                results = []
                for _ in range(3):
                    writer.write(_encode("POST", "/simulate", body))
                    await writer.drain()
                    results.append(await _recv(reader))
                return results
            finally:
                writer.close()

        results = _run(machine, tmp_path, scenario)
        assert [status for status, _, _ in results] == [200, 200, 200]
        sources = [doc["source"] for _, _, doc in results]
        assert sources == ["computed", "cache", "cache"]
        for _, headers, _ in results:
            assert headers["connection"] == "keep-alive"

    def test_connection_close_honored(self, machine, tmp_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(
                    _encode("GET", "/healthz", extra=("Connection: close",))
                )
                await writer.drain()
                status, headers, _ = await _recv(reader)
                trailing = await reader.read()  # server closes its side
                return status, headers, trailing
            finally:
                writer.close()

        status, headers, trailing = _run(machine, tmp_path, scenario)
        assert status == 200
        assert headers["connection"] == "close"
        assert trailing == b""

    def test_parse_memo_restamps_generated_ids(self, machine, tmp_path):
        async def scenario(server):
            body = json.dumps(SIM).encode()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                ids = []
                for _ in range(3):
                    writer.write(_encode("POST", "/simulate", body))
                    await writer.drain()
                    _, _, doc = await _recv(reader)
                    ids.append(doc["request_id"])
                return ids
            finally:
                writer.close()

        ids = _run(machine, tmp_path, scenario)
        assert len(set(ids)) == 3  # memoized parse, fresh identity

    def test_parse_memo_keeps_explicit_ids(self, machine, tmp_path):
        async def scenario(server):
            doc = dict(SIM, request_id="pinned")
            first = await _roundtrip(server, "POST", "/simulate", doc)
            second = await _roundtrip(server, "POST", "/simulate", doc)
            return first, second

        (_, _, d1), (_, _, d2) = _run(machine, tmp_path, scenario)
        assert d1["request_id"] == d2["request_id"] == "pinned"
