"""Coordinator + in-process worker nodes: join, forward, degrade, jobs.

Everything runs on one asyncio loop — the coordinator's HTTP server and
the nodes' full service stacks — so the tests exercise the real wire
protocol (``/cluster/join``, ``/cluster/compute``, forwarded
``/simulate``) without subprocesses.
"""

import asyncio
import json
import time

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


def _node_server(machine, port=0, executor=None):
    executor = executor or SweepExecutor(machine, workers=1, cache=None)
    service = ReductionService(
        machine, executor=executor, settings=ServiceSettings()
    )
    return NodeHTTPServer(service, "127.0.0.1", port)


class SlowExecutor(SweepExecutor):
    """Sleeps ``delay`` seconds (on the dispatch thread) before each run."""

    delay = 0.0

    def run(self, kind, payloads, stage):
        time.sleep(self.delay)
        return super().run(kind, payloads, stage)


async def _start_nodes(server, machine, count, executor_cls=SweepExecutor):
    """Start *count* in-process nodes and wait until all have joined."""
    nodes, agents = [], []
    for _ in range(count):
        node = _node_server(
            machine,
            executor=executor_cls(machine, workers=1, cache=None),
        )
        await node.start()
        agent = NodeAgent(server.address, node)
        agent.start()
        nodes.append(node)
        agents.append(agent)
    for agent in agents:
        await asyncio.wait_for(agent.joined.wait(), timeout=10)
    return nodes, agents


async def _stop_nodes(nodes, agents):
    for agent in agents:
        await agent.stop()
    for node in nodes:
        await node.stop()
        node.service.executor.close()


def _count(server, name, **labels):
    return server.registry.value(name, **labels) or 0


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


def _job_spec():
    """Six points, one chunk each."""
    from repro.jobs import JobSpec

    return JobSpec(
        case="C1", teams=(64, 128, 256), v=(2,), threads=(32, 64), trials=2,
        checkpoint_interval=1, shard_records=4,
    )


def _truth(machine, spec, directory):
    from repro.jobs import run_job

    executor = SweepExecutor(machine, workers=1, cache=None)
    try:
        run_job(directory, spec, executor)
    finally:
        executor.close()


class TestCallPolicyRouting:
    """/simulate forwarding and job chunks share one call policy."""

    def test_walk_past_a_suspect_node_keeps_its_probe(self):
        from repro.cluster.coordinator import ClusterState
        from repro.cluster.membership import ALIVE, SUSPECT
        from repro.faults.policy import USABLE
        from repro.telemetry.metrics import MetricsRegistry

        state = ClusterState(
            CoordinatorSettings(breaker_threshold=1, breaker_cooldown_s=0.0),
            "fp", MetricsRegistry(),
        )
        for node_id in ("A", "B"):
            state.register(
                {"url": "http://127.0.0.1:1", "machine": "fp",
                 "node_id": node_id}
            )
        key = next(
            k for k in (f"key-{i}" for i in range(1000))
            if state.ring.preference(k, count=2)[0] == "A"
        )
        policy = state.policy()

        async def attempt(node):
            return USABLE, node.node_id

        def walk():
            return asyncio.run(
                policy.call(
                    lambda tried: state.candidates(key, tried), attempt
                )
            ).value

        a = state.membership.get("A")
        state.breaker_for("A").record_failure(time.monotonic())  # A fails
        a.state = SUSPECT
        assert walk() == "B"  # ALIVE before SUSPECT
        # A was walked past, not called: its breaker keeps its probe.
        assert state.breaker_for("A").state == "open"
        a.state = ALIVE
        assert [walk() for _ in range(20)] == ["A"] * 20
        assert state.breaker_for("A").state == "closed"

    def test_slow_node_loses_to_the_hedge(self, machine):
        from repro.service.api import parse_request

        async def scenario(server):
            nodes, agents = await _start_nodes(
                server, machine, 2, executor_cls=SlowExecutor
            )
            try:
                key = server._routing_key(parse_request(dict(SIM)))
                owner = server.state.candidates(key, [])
                by_url = {node.address: node for node in nodes}
                by_url[owner[0].url].service.executor.delay = 1.0
                ids = [node.node_id for node in owner]
                before = [
                    _count(server, "cluster.forwarded", node=i) for i in ids
                ]
                hedges = _count(server, "cluster.hedges")
                status, doc = await request_json(
                    server.address, "POST", "/simulate", dict(SIM)
                )
                after = [
                    _count(server, "cluster.forwarded", node=i) for i in ids
                ]
                return (
                    status, doc, _count(server, "cluster.hedges") - hedges,
                    [a - b for a, b in zip(after, before)],
                )
            finally:
                await _stop_nodes(nodes, agents)

        status, doc, hedges, forwarded = _run(
            machine, scenario, _settings(hedge_delay_s=0.05)
        )
        assert status == 200 and doc["source"] == "computed"
        assert hedges == 1
        assert forwarded == [0, 1]  # the answer came from the second node

    def test_dropped_assignment_does_not_blame_the_node(self, machine):
        from repro.faults.injector import injected

        async def scenario(server):
            nodes, agents = await _start_nodes(server, machine, 1)
            try:
                with injected("seed=1;cluster.assign:error:count=3"):
                    faulted = [
                        await request_json(
                            server.address, "POST", "/simulate", dict(SIM)
                        )
                        for _ in range(3)
                    ]
                breaker = server.state.breaker_for(nodes[0].node_id).state
                clean = await request_json(
                    server.address, "POST", "/simulate", dict(SIM)
                )
                return faulted, breaker, clean
            finally:
                await _stop_nodes(nodes, agents)

        faulted, breaker, (status, doc) = _run(
            machine, scenario, _settings(breaker_threshold=3)
        )
        # The only node's assignment was dropped: nothing was computed.
        assert all(d["degraded"] for _s, d in faulted)
        assert breaker == "closed"
        assert status == 200 and doc["source"] == "computed"
        assert not doc.get("degraded")

    def test_dropped_chunk_assignment_does_not_blame_the_node(
        self, machine, tmp_path
    ):
        from repro.faults.chaos import _compare_job_dirs
        from repro.faults.injector import injected

        spec = _job_spec()
        _truth(machine, spec, tmp_path / "truth")

        async def scenario(server):
            nodes, agents = await _start_nodes(server, machine, 1)
            loop = asyncio.get_running_loop()
            node_id = nodes[0].node_id

            def counts():
                return [
                    _count(server, "cluster.chunks_local"),
                    _count(server, "cluster.chunks_remote"),
                    _count(server, "cluster.forward_failures", node=node_id),
                ]

            try:
                before = counts()
                with injected("seed=1;cluster.assign:error:count=3"):
                    job_id = server.jobs.submit(spec)["id"]
                    status = await loop.run_in_executor(
                        None, server.jobs.wait, job_id, 120.0
                    )
                delta = [a - b for a, b in zip(counts(), before)]
                breaker = server.state.breaker_for(node_id).state
                return job_id, status, delta, breaker
            finally:
                await _stop_nodes(nodes, agents)

        job_id, status, delta, breaker = _run(
            machine, scenario,
            _settings(jobs_dir=str(tmp_path / "jobs"), breaker_threshold=1),
        )
        assert status["state"] == "DONE"
        # Three chunks lost their assignment and ran locally; the node
        # was never blamed, so the rest still went to it.
        assert delta == [3, spec.total_points() - 3, 0]
        assert breaker == "closed"
        verdict = _compare_job_dirs(
            tmp_path / "truth", tmp_path / "jobs" / job_id
        )
        assert verdict["byte_identical"] is True

    def test_conflicting_chunk_fails_without_a_retry(self, machine):
        from repro.cluster.coordinator import ClusterJobExecutor, ClusterState
        from repro.telemetry.metrics import MetricsRegistry

        spec = _job_spec()

        async def scenario(server):
            # A private state and registry: the conflict counter must not
            # leak into the process-wide registry other tests read.
            state = ClusterState(
                server.settings, server.machine_fingerprint, MetricsRegistry()
            )
            nodes = [_node_server(machine) for _ in range(2)]
            for node in nodes:
                await node.start()
                state.register(
                    {"url": node.address,
                     "machine": server.machine_fingerprint}
                )
            loop = asyncio.get_running_loop()
            local = SweepExecutor(machine, workers=1, cache=None)
            executor = ClusterJobExecutor(state, spec, local)
            try:
                key = executor._chunk_key(0, 1)
                # Another node already answered this chunk, differently.
                state.assigner.assign(key, "ghost")
                state.assigner.complete(key, "ghost", "0" * 64)
                assignments = state.assigner.assignments
                payloads = list(spec.payloads())[:1]
                with pytest.raises(RuntimeError, match="conflicting results"):
                    await loop.run_in_executor(
                        None, executor._resolve_chunk,
                        "gpu_point", payloads, 0, "job",
                    )
                return (
                    state.assigner.assignments - assignments,
                    state.registry.value("cluster.chunk_conflicts"),
                )
            finally:
                executor.close()
                await _stop_nodes(nodes, [])

        assert _run(machine, scenario) == (1, 1)

    def test_empty_ring_computes_chunks_locally(self, machine):
        from repro.cluster.coordinator import ClusterJobExecutor, ClusterState
        from repro.telemetry.metrics import MetricsRegistry

        spec = _job_spec()
        payloads = list(spec.payloads())
        registry = MetricsRegistry()
        state = ClusterState(_settings(), "fp", registry)
        local = SweepExecutor(machine, workers=1, cache=None)
        executor = ClusterJobExecutor(state, spec, local)
        records = {}
        try:
            done = executor.run_streaming(
                "gpu_point", payloads, "job", records.__setitem__,
                chunk_size=2,
            )
        finally:
            executor.close()
        direct = SweepExecutor(machine, workers=1, cache=None)
        assert done == len(payloads)
        assert [records[i] for i in range(done)] == direct.run(
            "gpu_point", payloads, "direct"
        )
        assert registry.value("cluster.chunks_local") == 3
