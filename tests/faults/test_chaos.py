"""Chaos harness: report invariants + a short in-process storm."""

import asyncio

import pytest

from repro import Machine, ReproConfig
from repro.faults import injector
from repro.faults.chaos import (
    ChaosReport,
    JobKillReport,
    NodeKillReport,
    compute_truth,
    run_chaos,
    run_job_kill_chaos,
    run_node_kill_chaos,
)
from repro.service import ReductionService, ServiceHTTPServer, ServiceSettings
from repro.service.loadgen import preset_pool
from repro.sweep.executor import SweepExecutor
from repro.sweep.result_cache import ResultCache
from repro.telemetry import metrics


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(injector.FAULTS_ENV, raising=False)
    injector.deactivate()
    yield
    injector.deactivate()


class TestChaosReport:
    def test_clean_report_passes(self):
        report = ChaosReport(
            sent=100, ok=100, verified=100, recovered=True,
            recovery_seconds=0.5, recovery_slo_s=10.0, error_budget=0.01,
        )
        assert report.finalize().passed
        assert report.violations == []
        assert report.to_dict()["passed"] is True
        assert "PASS" in report.render()

    def test_wrong_results_always_violate(self):
        report = ChaosReport(
            sent=100, ok=100, verified=100, wrong_results=1, recovered=True,
            recovery_slo_s=10.0, error_budget=1.0,
        )
        assert not report.finalize().passed
        assert any("wrong" in v for v in report.violations)

    def test_error_budget_excludes_sabotaged_requests(self):
        report = ChaosReport(
            sent=100, sabotaged=50, errors=1, recovered=True,
            recovery_slo_s=10.0, error_budget=0.05,
        )
        # 1 error over 50 *clean* requests = 2%, inside the 5% budget.
        assert report.error_rate == pytest.approx(0.02)
        assert report.finalize().passed

    def test_missed_recovery_violates(self):
        report = ChaosReport(
            sent=10, ok=10, recovered=False, recovery_slo_s=5.0,
            error_budget=0.01,
        )
        assert not report.finalize().passed
        assert any("recover" in v for v in report.violations)
        assert "NOT recovered" in report.render()

    def test_malformed_accepted_violates(self):
        report = ChaosReport(
            sent=10, ok=9, malformed_accepted=1, recovered=True,
            recovery_slo_s=5.0, error_budget=1.0,
        )
        assert not report.finalize().passed


class TestComputeTruth:
    def test_truth_keys_match_service_fingerprints(self, machine):
        pool = preset_pool("small", 2)
        truth = compute_truth(machine, pool)
        assert len(truth) == 2
        for _key, (entry, record) in truth.items():
            assert entry in pool
            assert "bandwidth_gbs" in record

    def test_truth_ignores_an_active_fault_plan(self, machine):
        pool = preset_pool("small", 2)
        clean = compute_truth(machine, pool)
        with injector.injected(
            "seed=1;worker.task:crash@0.9;cache.get:corrupt"
        ):
            stormy = compute_truth(machine, pool)
        assert stormy == clean


class TestChaosRun:
    def test_short_storm_passes_invariants(self, machine, tmp_path):
        # Server-side cache corruption + slow responses, client-side
        # sabotage: the invariants must still hold, and every injected
        # fault must be visible in the /metrics-backed report.
        injector.activate(
            "seed=7;cache.get:corrupt@0.3;service.http:slow@0.2:delay=0.005"
        )
        executor = SweepExecutor(
            machine, workers=1, cache=ResultCache(tmp_path / "cache"),
        )
        # No private registry: like production, the service shares the
        # process-global telemetry registry, which is where fire()
        # counts injected faults — /metrics must expose them.
        service = ReductionService(
            machine, executor=executor, settings=ServiceSettings(),
        )
        server = ServiceHTTPServer(service, "127.0.0.1", 0)

        async def scenario():
            host, port = await server.start()
            try:
                return await run_chaos(
                    host, port, machine,
                    seed=7, duration_s=1.5, clients=3, unique_points=3,
                    client_faults=(
                        "chaos.client:disconnect@0.1;"
                        "chaos.client:malformed@0.1"
                    ),
                    error_budget=0.01, recovery_slo_s=10.0, timeout_s=10.0,
                )
            finally:
                await server.stop()
                executor.close()

        report = asyncio.run(scenario())
        assert report.sent > 0
        assert report.ok > 0
        assert report.verified > 0
        assert report.wrong_results == 0
        assert report.malformed_accepted == 0
        assert report.sabotaged > 0
        assert report.recovered
        # The server-side plan demonstrably fired and was counted.
        assert any(
            key.startswith("cache.get:corrupt")
            for key in report.faults_injected
        )
        assert report.passed, report.violations
        assert report.to_dict()["passed"] is True


class TestJobKillReport:
    def test_clean_report_passes(self):
        report = JobKillReport(
            requested_kills=1, kills=1, runs=2, points_total=12,
            points_done=12, completed=True, byte_identical=True,
        )
        assert report.finalize().passed
        assert report.to_dict()["scenario"] == "job-kill"
        assert "PASS" in report.render()

    def test_never_done_violates(self):
        report = JobKillReport(requested_kills=1, kills=1, points_total=12)
        assert not report.finalize().passed
        assert any("DONE" in v for v in report.violations)

    def test_zero_kills_exercised_nothing(self):
        report = JobKillReport(
            requested_kills=1, kills=0, points_total=12, points_done=12,
            completed=True, byte_identical=True,
        )
        assert not report.finalize().passed
        assert any("exercised nothing" in v for v in report.violations)

    def test_wrong_or_duplicated_points_violate(self):
        report = JobKillReport(
            kills=1, completed=True, byte_identical=True,
            wrong_points=1, duplicated_points=2, missing_points=3,
        )
        assert not report.finalize().passed
        assert len(report.violations) == 3

    def test_divergent_bytes_violate(self):
        report = JobKillReport(
            kills=1, completed=True, byte_identical=False,
        )
        assert not report.finalize().passed
        assert any("byte-identical" in v for v in report.violations)


class TestJobKillScenario:
    def test_kill_mid_job_recovers_byte_identical(self):
        report = run_job_kill_chaos(
            Machine(), seed=5, kills=1, timeout_s=240.0,
        )
        assert report.kills >= 1
        assert report.runs > 1
        assert report.completed
        assert report.byte_identical
        assert report.wrong_points == 0
        assert report.duplicated_points == 0
        assert report.missing_points == 0
        assert report.passed, report.violations

    def test_runners_rebuild_the_callers_machine(self):
        # Truth runs in-process on the caller's machine; the `repro job
        # run` subprocesses must price on the same cap and profile.
        machine = Machine(config=ReproConfig(
            functional_elements_cap=1 << 16, machine_profile="v100",
        ))
        report = run_job_kill_chaos(machine, seed=7, kills=1,
                                    timeout_s=240.0)
        assert report.completed
        assert report.wrong_points == 0
        assert report.byte_identical
        assert report.passed, report.violations


def _clean_node_kill_report(**overrides):
    base = dict(
        nodes_requested=3, nodes_joined=3, kills=1,
        job_state_at_kill="RUNNING", node_loss_detected=True,
        chunks_remote=10, chunks_reassigned=1, points_total=12,
        points_done=12, completed=True, byte_identical=True,
    )
    base.update(overrides)
    return NodeKillReport(**base)


class TestNodeKillReport:
    def test_clean_report_passes(self):
        report = _clean_node_kill_report()
        assert report.finalize().passed
        assert report.to_dict()["scenario"] == "node-kill"
        assert "PASS" in report.render()

    def test_zero_kills_exercised_nothing(self):
        report = _clean_node_kill_report(kills=0)
        assert not report.finalize().passed
        assert any("exercised nothing" in v for v in report.violations)

    def test_kill_after_job_done_violates(self):
        report = _clean_node_kill_report(job_state_at_kill="DONE")
        assert not report.finalize().passed
        assert any("mid-flight" in v for v in report.violations)

    def test_kill_at_checkpoint_interval_is_still_mid_flight(self):
        # A live run oscillates RUNNING <-> CHECKPOINTED at every
        # checkpoint interval; both count as mid-flight.
        report = _clean_node_kill_report(job_state_at_kill="CHECKPOINTED")
        assert report.finalize().passed

    def test_undetected_node_loss_violates(self):
        report = _clean_node_kill_report(node_loss_detected=False)
        assert not report.finalize().passed
        assert any("DEAD" in v for v in report.violations)

    def test_chunk_conflicts_violate(self):
        report = _clean_node_kill_report(chunk_conflicts=1)
        assert not report.finalize().passed
        assert any("conflict" in v for v in report.violations)

    def test_partial_join_violates(self):
        report = _clean_node_kill_report(nodes_joined=2)
        assert not report.finalize().passed

    def test_storm_violations_are_prefixed(self):
        report = _clean_node_kill_report(
            storm={"violations": ["error rate 0.5 over budget"]}
        )
        assert not report.finalize().passed
        assert report.violations == ["storm: error rate 0.5 over budget"]

    def test_divergent_bytes_violate(self):
        report = _clean_node_kill_report(byte_identical=False)
        assert not report.finalize().passed
        assert any("byte-identical" in v for v in report.violations)


class TestNodeKillScenario:
    def test_node_kill_recovers_byte_identical(self, machine):
        # Counts from earlier in the process are not the scenario's: the
        # coordinator's registry is process-wide.
        metrics().counter("cluster.chunk_conflicts").add(1)
        metrics().counter("cluster.chunks_remote").add(1)
        report = asyncio.run(run_node_kill_chaos(
            machine, seed=11, nodes=2, duration_s=3.0, clients=2,
            timeout_s=240.0,
        ))
        assert report.nodes_joined == 2
        assert report.kills >= 1
        assert report.node_loss_detected
        assert report.completed
        assert report.byte_identical
        assert report.chunk_conflicts == 0
        assert report.passed, report.violations
