"""SweepExecutor + faults: the global task timeout and pool integration."""

import pytest

from repro.config import ReproConfig
from repro.core.cases import C1
from repro.errors import SpecError
from repro.faults import injector
from repro.sweep.executor import (
    SweepExecutor, TIMEOUT_ENV, resolve_task_timeout,
)
from repro.sweep.fingerprint import canonical_json
from repro.sweep.result_cache import ResultCache
from repro.telemetry.state import metrics
from repro.verify.oracles import scalar_gpu_records

from .test_supervisor import _find_seed


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(injector.FAULTS_ENV, raising=False)
    monkeypatch.delenv(TIMEOUT_ENV, raising=False)
    injector.deactivate()
    yield
    injector.deactivate()


def _payloads(n):
    return [(C1, None, 1 + i, False) for i in range(n)]


class TestResolveTaskTimeout:
    def test_defaults_off(self):
        assert resolve_task_timeout(None, ReproConfig()) is None

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "5")
        assert resolve_task_timeout(2.5, ReproConfig()) == 2.5
        assert resolve_task_timeout("2.5", ReproConfig()) == 2.5

    def test_env_var_beats_config(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "5")
        config = ReproConfig(sweep_task_timeout_s=9.0)
        assert resolve_task_timeout(None, config) == 5.0

    def test_config_used_last(self):
        config = ReproConfig(sweep_task_timeout_s=9.0)
        assert resolve_task_timeout(None, config) == 9.0

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "5")
        assert resolve_task_timeout(0, ReproConfig()) is None
        assert resolve_task_timeout("0", ReproConfig()) is None
        assert resolve_task_timeout(-1, ReproConfig()) is None

    def test_junk_raises_spec_error(self):
        with pytest.raises(SpecError):
            resolve_task_timeout("soon", ReproConfig())


class TestTimeoutSweep:
    def test_timeout_records_failed_point_and_sweep_continues(
        self, machine, tmp_path
    ):
        # Hang fires at probe 0 only; the replacement worker (resuming
        # at probe 1) completes the remaining two points.
        seed = _find_seed(0.5, [True, False, False])
        injector.activate(f"seed={seed};worker.task:hang@0.5:delay=30")
        payloads = _payloads(3)
        executor = SweepExecutor(
            machine, workers=1, cache=ResultCache(tmp_path / "cache"),
            task_timeout_s=0.3,
        )
        try:
            records = executor.run("gpu_point", payloads, "sweep")
        finally:
            executor.close()
        assert records[0]["failed"] is True
        assert "timeout" in records[0]["error"]
        expected = scalar_gpu_records(machine, payloads[1:])
        assert [canonical_json(r) for r in records[1:]] == [
            canonical_json(r) for r in expected
        ]
        # The sweep finished; the failure is visible in the stats and
        # rendered summary, and the failed point was never cached.
        assert executor.stats.total_failed == 1
        assert "failed" in executor.stats.render()
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(executor.cache_key("gpu_point", payloads[0])) is None
        assert cache.get(
            executor.cache_key("gpu_point", payloads[1])
        ) is not None

    def test_failed_point_gets_a_fresh_attempt_next_run(
        self, machine, tmp_path
    ):
        seed = _find_seed(0.5, [True, False])
        injector.activate(f"seed={seed};worker.task:hang@0.5:delay=30")
        payloads = _payloads(1)
        first = SweepExecutor(
            machine, workers=1, cache=ResultCache(tmp_path / "cache"),
            task_timeout_s=0.3,
        )
        try:
            assert first.run("gpu_point", payloads, "sweep")[0]["failed"]
        finally:
            first.close()
        injector.deactivate()
        second = SweepExecutor(
            machine, workers=1, cache=ResultCache(tmp_path / "cache"),
        )
        [record] = second.run("gpu_point", payloads, "sweep")
        assert canonical_json(record) == canonical_json(
            scalar_gpu_records(machine, payloads)[0]
        )
        assert second.stats.total_failed == 0

    def test_timeout_routes_single_worker_through_pool(self, machine):
        executor = SweepExecutor(machine, workers=1, task_timeout_s=10.0)
        try:
            assert executor.stats.mode == "processes(1)"
        finally:
            executor.close()
        serial = SweepExecutor(machine, workers=1)
        assert serial.stats.mode == "serial"

    def test_mode_names_what_ran(self, machine):
        # Without a deadline a gpu_point stage is priced in-process at
        # any --workers, so no pool ran; with one, every point went
        # through the pool.
        payloads = _payloads(3)
        serial = SweepExecutor(machine, workers=2)
        try:
            serial.run("gpu_point", payloads, "sweep")
            assert serial.stats.mode == "serial"
            assert serial._pool is None
        finally:
            serial.close()
        pooled = SweepExecutor(machine, workers=2, task_timeout_s=60.0)
        try:
            pooled.run("gpu_point", payloads, "sweep")
            assert pooled.stats.mode == "processes(2)"
            assert pooled._pool is not None
        finally:
            pooled.close()

    def test_pool_results_match_serial_at_executor_level(self, machine):
        payloads = _payloads(3)
        pickled = metrics().value("sweep.payload_bytes", transport="pickle")
        pooled = SweepExecutor(machine, workers=2, task_timeout_s=60.0)
        try:
            parallel = pooled.run("gpu_point", payloads, "sweep")
        finally:
            pooled.close()
        assert metrics().value(
            "sweep.payload_bytes", transport="pickle"
        ) > (pickled or 0)
        serial = SweepExecutor(machine, workers=1).run(
            "gpu_point", payloads, "sweep"
        )
        assert [canonical_json(r) for r in parallel] == [
            canonical_json(r) for r in serial
        ]

    def test_clean_run_renders_no_failed_column(self, machine):
        executor = SweepExecutor(machine, workers=1)
        executor.run("gpu_point", _payloads(2), "sweep")
        # Byte-stability of the human-readable stats for fault-free
        # runs: the failed column only appears when something failed.
        assert "failed" not in executor.stats.render()
