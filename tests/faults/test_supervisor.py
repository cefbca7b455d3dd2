"""Supervised worker pool: crashes, hangs, timeouts, corruption, quarantine.

These tests drive real worker processes with seeded ``worker.task``
faults.  Rate-based rules use seeds chosen (by deterministic search over
the plan's own draw function) so the fault fires at a known probe index,
which keeps each scenario's crash/retry schedule exact.
"""

import pytest

from repro.core.cases import C1
from repro.faults import FaultPlan, SupervisedWorkerPool, injector
from repro.sweep.executor import MachineSpec
from repro.sweep.fingerprint import canonical_json
from repro.telemetry.metrics import MetricsRegistry
from repro.verify.oracles import scalar_gpu_records


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(injector.FAULTS_ENV, raising=False)
    injector.deactivate()
    yield
    injector.deactivate()


def _payloads(n):
    # Distinct trials keep the records distinguishable.
    return [(C1, None, 1 + i, False) for i in range(n)]


def _gpu_point(machine, payload):
    [record] = scalar_gpu_records(machine, [payload])
    return record


#: Task table for supervisor scenarios: one scalar-priced point per task
#: (module-level, so worker processes can resolve it).
GPU_POINT_TASKS = {"gpu_point": _gpu_point}


def _serial(machine, payloads):
    return scalar_gpu_records(machine, payloads)


def _pool(machine, **kwargs):
    defaults = dict(workers=1, registry=MetricsRegistry(), poll_s=0.02)
    defaults.update(kwargs)
    return SupervisedWorkerPool(
        MachineSpec.of(machine), GPU_POINT_TASKS, **defaults
    )


def _find_seed(rate, pattern):
    """Smallest seed whose rule-0 draws fire exactly per *pattern*."""
    for seed in range(2000):
        plan = FaultPlan.parse(f"seed={seed};worker.task:x@{rate}")
        if all(
            (plan._draw(0, "worker.task", i) < rate) == want
            for i, want in enumerate(pattern)
        ):
            return seed
    raise AssertionError(f"no seed yields pattern {pattern} at rate {rate}")


class TestFaultFree:
    def test_pool_results_byte_identical_to_serial(self, machine):
        payloads = _payloads(4)
        pool = _pool(machine, workers=2)
        try:
            records, _spans = pool.run("gpu_point", payloads)
        finally:
            pool.close()
        expected = _serial(machine, payloads)
        assert [canonical_json(r) for r in records] == [
            canonical_json(r) for r in expected
        ]
        assert pool.restarts == 0

    def test_closed_pool_refuses_work(self, machine):
        pool = _pool(machine)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.run("gpu_point", _payloads(1))


class TestCrash:
    def test_crash_restarts_worker_and_reexecutes(self, machine):
        # Probe pattern pass/fire/pass: task 0 succeeds, task 1 crashes
        # its worker once more after the restart resumes at the same
        # probe, then the second restart (probe 2) completes it.
        seed = _find_seed(0.5, [False, True, False])
        injector.activate(f"seed={seed};worker.task:crash@0.5")
        registry = MetricsRegistry()
        payloads = _payloads(2)
        pool = _pool(machine, registry=registry)
        try:
            records, _ = pool.run("gpu_point", payloads)
        finally:
            pool.close()
        expected = _serial(machine, payloads)
        assert [canonical_json(r) for r in records] == [
            canonical_json(r) for r in expected
        ]
        assert pool.restarts == 2
        assert registry.value("sweep.pool.worker_crashes") == 2
        assert registry.value("sweep.pool.retries") == 2
        assert registry.value("sweep.pool.quarantined") is None

    def test_poison_task_is_quarantined_not_fatal(self, machine):
        # Rate-1 crash: every attempt (initial + 2 retries) kills its
        # worker, so the task must resolve to an explicit failure record
        # while the healthy task still completes.
        injector.activate("worker.task:crash")
        registry = MetricsRegistry()
        pool = _pool(machine, registry=registry)
        try:
            records, _ = pool.run("gpu_point", _payloads(1))
        finally:
            pool.close()
        [record] = records
        assert record["failed"] is True
        assert record["attempts"] == 3
        assert record["bandwidth_gbs"] == 0.0
        assert record["value"] is None
        assert registry.value("sweep.pool.quarantined") == 1
        assert registry.value("sweep.pool.worker_crashes") == 3


class TestWrongResult:
    def test_corrupted_record_detected_and_reexecuted(self, machine):
        # Fire at probe 0 only: the first attempt returns a mangled
        # record whose checksum no longer matches; the supervisor
        # re-executes in the same (healthy) worker.
        seed = _find_seed(0.5, [True, False])
        injector.activate(f"seed={seed};worker.task:wrong_result@0.5")
        registry = MetricsRegistry()
        payloads = _payloads(1)
        pool = _pool(machine, registry=registry)
        try:
            records, _ = pool.run("gpu_point", payloads)
        finally:
            pool.close()
        assert canonical_json(records[0]) == canonical_json(
            _serial(machine, payloads)[0]
        )
        assert registry.value("sweep.pool.wrong_results_detected") == 1
        assert registry.value("sweep.pool.retries") == 1
        assert pool.restarts == 0  # corruption is not a worker death


class TestTimeout:
    def test_timeout_records_failure_without_retry(self, machine):
        injector.activate("worker.task:hang:delay=30")
        registry = MetricsRegistry()
        pool = _pool(machine, registry=registry, task_timeout_s=0.3)
        try:
            records, _ = pool.run("gpu_point", _payloads(1))
        finally:
            pool.close()
        [record] = records
        assert record["failed"] is True
        assert "timeout" in record["error"]
        assert registry.value("sweep.pool.task_timeouts") == 1
        # A pathological config would time out on every retry: none are
        # attempted.
        assert registry.value("sweep.pool.retries") is None
        assert pool.restarts == 1  # the hung worker was still replaced


class TestHang:
    def test_heartbeat_detects_hang_and_recovers(self, machine):
        # No task timeout: liveness comes from the heartbeat bound.  The
        # first attempt hangs, the restarted worker (resuming at probe
        # 1) completes the task.
        seed = _find_seed(0.5, [True, False])
        injector.activate(f"seed={seed};worker.task:hang@0.5:delay=30")
        registry = MetricsRegistry()
        payloads = _payloads(1)
        pool = _pool(machine, registry=registry, heartbeat_timeout_s=0.5)
        try:
            records, _ = pool.run("gpu_point", payloads)
        finally:
            pool.close()
        assert canonical_json(records[0]) == canonical_json(
            _serial(machine, payloads)[0]
        )
        assert registry.value("sweep.pool.hangs_detected") == 1
        assert registry.value("sweep.pool.retries") == 1
        assert pool.restarts == 1
