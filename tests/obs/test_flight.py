"""The flight recorder: ring, dumps, rate limiting, crash triggers."""

import json
import os

import pytest

from repro.faults import injector
from repro.faults.breaker import CircuitBreaker
from repro.obs.flight import (
    DUMP_FORMAT,
    FLIGHT_ENV,
    FlightRecorder,
    configure_flight,
    flight,
)
from repro.telemetry.metrics import MetricsRegistry


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestDisabled:
    def test_recorder_without_directory_is_inert(self):
        recorder = FlightRecorder()
        assert recorder.enabled is False
        recorder.record("pool", "task_assigned", task=1)
        assert recorder.events() == []
        assert recorder.dump("anything") is None


class TestRing:
    def test_events_in_order_with_payload(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        recorder.record("pool", "task_assigned", task=0, slot=1)
        recorder.record("breaker", "transition")
        first, second = recorder.events()
        assert first["kind"] == "pool" and first["name"] == "task_assigned"
        assert first["data"] == {"task": 0, "slot": 1}
        assert first["t"] <= second["t"]
        assert "data" not in second  # no payload, no key

    def test_capacity_drops_oldest(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), capacity=3)
        for i in range(5):
            recorder.record("k", "n", i=i)
        assert [e["data"]["i"] for e in recorder.events()] == [2, 3, 4]

    def test_clear(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        recorder.record("k", "n")
        recorder.clear()
        assert recorder.events() == []


class TestDump:
    def test_dump_document(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        recorder.record("pool", "worker_crash", slot=0)
        path = recorder.dump("worker_crash", slot=0, exitcode=-9)
        assert path is not None and path.exists()
        assert path.name.startswith(f"flight-{os.getpid()}-")
        assert path.name.endswith("-worker-crash.json")
        doc = _load(path)
        assert doc["format"] == DUMP_FORMAT
        assert doc["version"] == 1
        assert doc["reason"] == "worker_crash"
        assert doc["pid"] == os.getpid()
        assert doc["context"] == {"slot": 0, "exitcode": -9}
        [event] = doc["events"]
        assert event["name"] == "worker_crash"
        assert "spans" not in doc  # telemetry off
        assert isinstance(doc["metrics"], list)

    def test_dump_includes_span_tail_when_telemetry_on(
        self, tmp_path, telemetry
    ):
        spans = telemetry.recorder
        spans.close(spans.open("service.request", trace_id="ab" * 16))
        recorder = FlightRecorder(str(tmp_path))
        doc = _load(recorder.dump("sigterm"))
        [span] = doc["spans"]
        assert span["name"] == "service.request"
        assert span["attributes"]["trace_id"] == "ab" * 16

    def test_rate_limited_per_reason(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        assert recorder.dump("breaker_open") is not None
        assert recorder.dump("breaker_open") is None  # within 5 s
        assert recorder.dump("sigterm") is not None  # other reasons free

    def test_unwritable_directory_fails_soft(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        recorder = FlightRecorder(str(target))
        assert recorder.dump("sigterm") is None


class TestGlobalRecorder:
    def test_configure_exports_and_pops_env(self, tmp_path, flight_dir):
        recorder = configure_flight(str(tmp_path / "elsewhere"))
        assert os.environ[FLIGHT_ENV] == str(tmp_path / "elsewhere")
        assert flight() is recorder
        assert flight().enabled
        configure_flight(None)
        assert FLIGHT_ENV not in os.environ
        assert flight().enabled is False


class TestCrashTriggers:
    def test_breaker_open_dumps(self, flight_dir):
        breaker = CircuitBreaker(
            name="svc", failure_threshold=2, cooldown_s=60.0,
            registry=MetricsRegistry(),
        )
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state == "open"
        [dump] = list(flight_dir.glob("flight-*-breaker-open.json"))
        doc = _load(dump)
        assert doc["reason"] == "breaker_open"
        assert doc["context"] == {"breaker": "svc"}
        names = [e["name"] for e in doc["events"]]
        assert "transition" in names

    def test_worker_crash_dumps(self, machine, flight_dir, monkeypatch):
        from repro.core.cases import C1
        from repro.faults import SupervisedWorkerPool
        from repro.sweep.executor import MachineSpec

        from ..faults.test_supervisor import GPU_POINT_TASKS

        monkeypatch.delenv(injector.FAULTS_ENV, raising=False)
        injector.deactivate()
        try:
            # Rate-1 crash: every attempt kills its worker, the task is
            # quarantined — and each death leaves a black-box trail.
            injector.activate("worker.task:crash")
            pool = SupervisedWorkerPool(
                MachineSpec.of(machine), GPU_POINT_TASKS, workers=1,
                registry=MetricsRegistry(), poll_s=0.02,
            )
            try:
                records, _ = pool.run("gpu_point", [(C1, None, 1, False)])
            finally:
                pool.close()
        finally:
            injector.deactivate()
        assert records[0].get("failed") is True
        [dump] = list(flight_dir.glob("flight-*-worker-crash.json"))
        doc = _load(dump)
        assert doc["reason"] == "worker_crash"
        assert doc["context"]["slot"] == 0
        assert doc["context"]["exitcode"] is not None
        names = {(e["kind"], e["name"]) for e in doc["events"]}
        assert ("pool", "task_assigned") in names
        assert ("pool", "worker_crash") in names
