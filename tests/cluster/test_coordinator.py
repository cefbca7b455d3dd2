"""Coordinator + in-process worker nodes: join, forward, degrade, jobs.

Everything runs on one asyncio loop — the coordinator's HTTP server and
the nodes' full service stacks — so the tests exercise the real wire
protocol (``/cluster/join``, ``/cluster/compute``, forwarded
``/simulate``) without subprocesses.
"""

import asyncio
import json

import pytest

from repro.cluster import (
    CoordinatorHTTPServer,
    CoordinatorSettings,
    NodeAgent,
    NodeHTTPServer,
)
from repro.cluster._http import request_json
from repro.service import ReductionService, ServiceHTTPServer, ServiceSettings
from repro.sweep.executor import SweepExecutor


def _node_server(machine, port=0):
    executor = SweepExecutor(machine, workers=1, cache=None)
    service = ReductionService(
        machine, executor=executor, settings=ServiceSettings()
    )
    return NodeHTTPServer(service, "127.0.0.1", port)


def _settings(**overrides):
    base = dict(
        lease_s=0.5,
        grace_s=0.5,
        retry_backoff_s=0.01,
        forward_timeout_s=10.0,
    )
    base.update(overrides)
    return CoordinatorSettings(**base)


def _run(machine, scenario, settings=None):
    async def wrapped():
        server = CoordinatorHTTPServer(
            machine, settings or _settings(), host="127.0.0.1", port=0
        )
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(wrapped())


SIM = {"case": "C1", "teams": 64, "v": 2, "threads": 64, "trials": 3}


class TestJoinAndHealth:
    def test_join_requires_a_url(self, machine):
        async def scenario(server):
            return await request_json(
                server.address, "POST", "/cluster/join", {"machine": "x"}
            )

        status, doc = _run(machine, scenario)
        assert status == 400

    def test_fingerprint_mismatch_is_rejected(self, machine):
        async def scenario(server):
            return await request_json(
                server.address, "POST", "/cluster/join",
                {"url": "http://127.0.0.1:1", "machine": "wrong"},
            )

        status, doc = _run(machine, scenario)
        assert status == 409
        assert doc["got"] == "wrong"
        assert "mismatch" in doc["error"]

    def test_join_hands_out_id_generation_and_lease(self, machine):
        async def scenario(server):
            return await request_json(
                server.address, "POST", "/cluster/join",
                {
                    "url": "http://127.0.0.1:1",
                    "machine": server.machine_fingerprint,
                },
            )

        status, doc = _run(machine, scenario)
        assert status == 200
        assert doc["node_id"].startswith("node-")
        assert doc["generation"] >= 1
        assert doc["lease_s"] == 0.5

    def test_health_is_503_with_no_nodes(self, machine):
        async def scenario(server):
            return await request_json(server.address, "GET", "/health")

        status, doc = _run(machine, scenario)
        assert status == 503
        assert doc["status"] == "empty"

    def test_healthz_reports_counts(self, machine):
        async def scenario(server):
            await request_json(
                server.address, "POST", "/cluster/join",
                {
                    "url": "http://127.0.0.1:1",
                    "machine": server.machine_fingerprint,
                },
            )
            return await request_json(server.address, "GET", "/healthz")

        status, doc = _run(machine, scenario)
        assert status == 200
        assert doc["role"] == "coordinator"
        assert doc["nodes"]["ALIVE"] == 1

    def test_heartbeat_verdicts(self, machine):
        async def scenario(server):
            _, joined = await request_json(
                server.address, "POST", "/cluster/join",
                {
                    "url": "http://127.0.0.1:1",
                    "machine": server.machine_fingerprint,
                },
            )
            ok = await request_json(
                server.address, "POST", "/cluster/heartbeat",
                {
                    "node_id": joined["node_id"],
                    "generation": joined["generation"],
                },
            )
            stale = await request_json(
                server.address, "POST", "/cluster/heartbeat",
                {"node_id": joined["node_id"], "generation": 999},
            )
            unknown = await request_json(
                server.address, "POST", "/cluster/heartbeat",
                {"node_id": "nope", "generation": 1},
            )
            return ok, stale, unknown

        (s1, d1), (s2, d2), (s3, d3) = _run(machine, scenario)
        assert (s1, d1["status"]) == (200, "ok")
        assert (s2, d2["status"]) == (200, "stale")
        assert (s3, d3["status"]) == (200, "unknown")


class TestForwarding:
    def test_simulate_forwards_and_matches_direct_service(
        self, machine
    ):
        async def scenario(server):
            node = _node_server(machine)
            await node.start()
            agent = NodeAgent(server.address, node)
            agent.start()
            try:
                await asyncio.wait_for(agent.joined.wait(), timeout=10)
                via_cluster = await request_json(
                    server.address, "POST", "/simulate", dict(SIM)
                )
                direct = await request_json(
                    node.address, "POST", "/simulate", dict(SIM)
                )
                return via_cluster, direct
            finally:
                await agent.stop()
                await node.stop()
                node.service.executor.close()

        (status, doc), (d_status, d_doc) = _run(machine, scenario)
        assert status == 200 and d_status == 200
        assert doc["status"] == "ok"
        assert doc["source"] == "computed"
        assert not doc.get("degraded")
        # Byte-identity through the ring: same fingerprint, same result.
        assert doc["fingerprint"] == d_doc["fingerprint"]
        assert doc["result"] == d_doc["result"]

    def test_invalid_request_is_rejected_not_forwarded(self, machine):
        async def scenario(server):
            return await request_json(
                server.address, "POST", "/simulate", {"case": "NOPE"}
            )

        status, doc = _run(machine, scenario)
        assert status == 400
        assert doc["reason"] == "invalid_request"

    def test_empty_ring_degrades_analytically(self, machine):
        async def scenario(server):
            return await request_json(
                server.address, "POST", "/simulate", dict(SIM)
            )

        status, doc = _run(machine, scenario)
        assert status == 200
        assert doc["degraded"] is True
        assert doc["source"] == "degraded"

    def test_empty_ring_without_degrade_is_503(self, machine):
        async def scenario(server):
            return await request_json(
                server.address, "POST", "/simulate", dict(SIM)
            )

        status, doc = _run(machine, scenario, _settings(degrade=False))
        assert status == 503
        assert doc["reason"] == "no_nodes"

    def test_batch_forwards_per_entry(self, machine):
        async def scenario(server):
            node = _node_server(machine)
            await node.start()
            agent = NodeAgent(server.address, node)
            agent.start()
            try:
                await asyncio.wait_for(agent.joined.wait(), timeout=10)
                return await request_json(
                    server.address, "POST", "/batch",
                    {"requests": [dict(SIM), {"case": "NOPE"}]},
                )
            finally:
                await agent.stop()
                await node.stop()
                node.service.executor.close()

        status, doc = _run(machine, scenario)
        assert status == 200
        assert doc["responses"][0]["status"] == "ok"
        assert doc["responses"][1]["reason"] == "invalid_request"


class TestNodeCompute:
    def test_compute_chunk_round_trips_records(self, machine):
        from repro.jobs import JobSpec
        from repro.verify.fuzzer import case_digest

        spec = JobSpec(
            case="C1", teams=(64,), v=(2,), threads=(32, 64), trials=2
        )

        async def scenario(server):
            node = _node_server(machine)
            await node.start()
            try:
                return await request_json(
                    node.address, "POST", "/cluster/compute",
                    {"spec": spec.to_dict(), "start": 0, "count": 2},
                )
            finally:
                await node.stop()
                node.service.executor.close()

        status, doc = _run(machine, scenario)
        assert status == 200
        assert len(doc["records"]) == 2
        assert doc["digest"] == case_digest(doc["records"])

    def test_chunk_at_last_index_builds_only_its_payloads(
        self, machine, monkeypatch
    ):
        from repro.core.optimized import KernelConfig
        from repro.jobs import JobSpec, api

        spec = JobSpec(
            case="C1", teams=(64, 128), v=(2, 4), threads=(32, 64, 96),
            trials=2,
        )
        last = spec.total_points() - 1
        built = []

        def counting_config(**fields):
            built.append(fields)
            return KernelConfig(**fields)

        monkeypatch.setattr(api, "KernelConfig", counting_config)

        async def scenario(server):
            node = _node_server(machine)
            await node.start()
            try:
                return await request_json(
                    node.address, "POST", "/cluster/compute",
                    {"spec": spec.to_dict(), "start": last, "count": 1},
                )
            finally:
                await node.stop()
                node.service.executor.close()

        status, doc = _run(machine, scenario)
        assert status == 200
        assert built == [{"teams": 128, "v": 4, "threads": 96}]
        assert len(doc["records"]) == 1

    def test_compute_chunk_rejects_bad_ranges(self, machine):
        from repro.jobs import JobSpec

        spec = JobSpec(
            case="C1", teams=(64,), v=(2,), threads=(32,), trials=2
        )

        async def scenario(server):
            node = _node_server(machine)
            await node.start()
            try:
                beyond = await request_json(
                    node.address, "POST", "/cluster/compute",
                    {"spec": spec.to_dict(), "start": 0, "count": 99},
                )
                zero = await request_json(
                    node.address, "POST", "/cluster/compute",
                    {"spec": spec.to_dict(), "start": 0, "count": 0},
                )
                return beyond, zero
            finally:
                await node.stop()
                node.service.executor.close()

        (s1, _), (s2, _) = _run(machine, scenario)
        assert s1 == 400
        assert s2 == 400

    def test_node_info_carries_identity(self, machine):
        async def scenario(server):
            node = _node_server(machine)
            node.node_id = "node-test"
            await node.start()
            try:
                return await request_json(
                    node.address, "GET", "/cluster/info"
                )
            finally:
                await node.stop()
                node.service.executor.close()

        status, doc = _run(machine, scenario)
        assert status == 200
        assert doc["node_id"] == "node-test"
        assert doc["capabilities"]["workers"] == 1
        assert doc["machine"]


class TestClusterJobs:
    def test_cluster_job_matches_single_node_run_byte_for_byte(
        self, machine, tmp_path
    ):
        from repro.jobs import JobSpec, run_job

        spec = JobSpec(
            case="C1", teams=(64, 128), v=(2,), threads=(32, 64),
            trials=2, checkpoint_interval=2, shard_records=3,
        )
        truth_dir = tmp_path / "truth"
        executor = SweepExecutor(machine, workers=1, cache=None)
        try:
            run_job(truth_dir, spec, executor)
        finally:
            executor.close()

        async def scenario(server):
            node = _node_server(machine)
            await node.start()
            agent = NodeAgent(server.address, node)
            agent.start()
            loop = asyncio.get_running_loop()
            try:
                await asyncio.wait_for(agent.joined.wait(), timeout=10)
                submitted = server.jobs.submit(spec)
                status = await loop.run_in_executor(
                    None, server.jobs.wait, submitted["id"], 120.0
                )
                return submitted["id"], status
            finally:
                await agent.stop()
                await node.stop()
                node.service.executor.close()

        settings = _settings(jobs_dir=str(tmp_path / "jobs"))
        job_id, status = _run(machine, scenario, settings)
        assert status["state"] == "DONE"

        from repro.faults.chaos import _compare_job_dirs

        job_dir = tmp_path / "jobs" / job_id
        verdict = _compare_job_dirs(truth_dir, job_dir)
        assert verdict["byte_identical"] is True
        assert verdict["wrong_points"] == 0
        assert verdict["missing_points"] == 0
