"""The /jobs HTTP routes: lifecycle over a live asyncio server."""

import asyncio
import json
import time

from repro.service import ReductionService, ServiceHTTPServer, ServiceSettings
from repro.sweep.executor import SweepExecutor
from repro.telemetry.metrics import MetricsRegistry

SPEC = {
    "case": "C1", "teams": [64, 128], "v": [2], "threads": [32],
    "trials": 3, "checkpoint_interval": 2, "shard_records": 2,
}


def _server(machine, tmp_path, jobs=True):
    executor = SweepExecutor(machine, workers=1, cache=None)
    settings = ServiceSettings(
        jobs_dir=str(tmp_path / "jobs") if jobs else None
    )
    service = ReductionService(
        machine, executor=executor, settings=settings,
        registry=MetricsRegistry(),
    )
    return ServiceHTTPServer(service, host="127.0.0.1", port=0)


async def _roundtrip(server, method, path, doc=None):
    body = json.dumps(doc).encode() if doc is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(head + body)
        await writer.drain()
        blob = await reader.readuntil(b"\r\n\r\n")
        lines = blob.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for text in lines[1:]:
            if text:
                name, _, value = text.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await reader.readexactly(length) if length else b""
        return status, headers, payload
    finally:
        writer.close()


def _json(payload):
    return json.loads(payload) if payload else None


def _run(machine, tmp_path, scenario, jobs=True):
    async def wrapped():
        server = _server(machine, tmp_path, jobs=jobs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(wrapped())


async def _wait_done(server, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _status, _headers, payload = await _roundtrip(
            server, "GET", f"/jobs/{job_id}"
        )
        doc = _json(payload)
        if doc["state"] in ("DONE", "FAILED", "CANCELLED"):
            return doc
        await asyncio.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestJobRoutes:
    def test_full_lifecycle(self, machine, tmp_path):
        async def scenario(server):
            status, _h, payload = await _roundtrip(
                server, "POST", "/jobs", SPEC
            )
            assert status == 202
            job = _json(payload)
            assert job["points_total"] == 2
            final = await _wait_done(server, job["id"])
            assert final["state"] == "DONE"
            assert final["points_done"] == 2

            status, _h, payload = await _roundtrip(server, "GET", "/jobs")
            assert status == 200
            assert [j["id"] for j in _json(payload)["jobs"]] == [job["id"]]

            status, headers, payload = await _roundtrip(
                server, "GET", f"/jobs/{job['id']}/stream"
            )
            assert status == 200
            assert headers["content-type"] == "application/x-ndjson"
            assert payload.count(b"\n") == 2

            status, _h, payload = await _roundtrip(
                server, "GET", f"/jobs/{job['id']}/stream?offset=1"
            )
            assert payload.count(b"\n") == 1

            # Resuming a DONE job is an idempotent 202.
            status, _h, payload = await _roundtrip(
                server, "POST", f"/jobs/{job['id']}/resume"
            )
            assert status == 202
            assert _json(payload)["state"] == "DONE"
            return job

        _run(machine, tmp_path, scenario)

    def test_invalid_spec_is_400(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(
                server, "POST", "/jobs", {"trails": 5}
            )

        status, _h, payload = _run(machine, tmp_path, scenario)
        assert status == 400
        assert "trails" in _json(payload)["error"]

    def test_unknown_job_is_404(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(server, "GET", "/jobs/jdeadbeef")

        status, _h, _payload = _run(machine, tmp_path, scenario)
        assert status == 404

    def test_bad_stream_offset_is_400(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(
                server, "GET", "/jobs/jdeadbeef/stream?offset=nope"
            )

        status, _h, _payload = _run(machine, tmp_path, scenario)
        assert status == 400

    def test_delete_cancels(self, machine, tmp_path):
        async def scenario(server):
            _s, _h, payload = await _roundtrip(
                server, "POST", "/jobs", SPEC
            )
            job = _json(payload)
            status, _h, payload = await _roundtrip(
                server, "DELETE", f"/jobs/{job['id']}"
            )
            assert status == 200
            final = await _wait_done(server, job["id"])
            assert final["state"] in ("CANCELLED", "DONE")

        _run(machine, tmp_path, scenario)

    def test_disabled_jobs_is_503(self, machine, tmp_path):
        async def scenario(server):
            return await _roundtrip(server, "POST", "/jobs", SPEC)

        status, _h, payload = _run(machine, tmp_path, scenario, jobs=False)
        assert status == 503
        assert "jobs-dir" in _json(payload)["error"]


class TestWatch:
    def test_stream_out_gets_every_record_past_one_page(
        self, machine, tmp_path
    ):
        from repro.cli import main

        # 4160 points: more than one 4096-record /stream page.
        spec = {"case": "C1", "teams": [64, 128, 256, 512], "v": [1, 2],
                "threads": list(range(1, 521)), "trials": 1}
        out = tmp_path / "stream.jsonl"

        async def scenario(server):
            _s, _h, payload = await _roundtrip(server, "POST", "/jobs", spec)
            job = _json(payload)
            final = await _wait_done(server, job["id"])
            assert final["state"] == "DONE"
            # The blocking CLI client runs beside the server's loop.
            code = await asyncio.get_running_loop().run_in_executor(
                None, main, [
                    "--no-cache", "job", "watch", job["id"],
                    "--url", f"http://{server.host}:{server.port}",
                    "--stream-out", str(out), "--interval", "0.05",
                ],
            )
            return job, code

        job, code = _run(machine, tmp_path, scenario)
        assert code == 0
        assert job["points_total"] == 4160
        lines = out.read_bytes().splitlines()
        assert len(lines) == 4160
        assert [json.loads(line)["i"] for line in lines] == list(range(4160))
