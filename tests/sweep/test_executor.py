"""SweepExecutor: serial equivalence, pooling, caching, collation."""

import multiprocessing

import pytest

from repro import Machine, ReproConfig
from repro.core.cases import C1, C3
from repro.core.coexec import AllocationSite, measure_coexec_sweep
from repro.core.optimized import KernelConfig
from repro.core.timing import measure_gpu_reduction
from repro.core.tuning import TEAMS_GRID, sweep_parameters
from repro.evaluation.figures import paper_optimized_config
from repro.sweep import (
    CoexecRequest,
    ResultCache,
    SweepExecutor,
    canonical_json,
    resolve_workers,
)
from repro.telemetry.state import metrics


@pytest.fixture()
def machine():
    return Machine(config=ReproConfig(functional_elements_cap=1 << 14))


CONFIGS = [
    None,
    KernelConfig(teams=128, v=1),
    KernelConfig(teams=1024, v=4),
    KernelConfig(teams=65536, v=32),
]


def _pickled_bytes():
    return metrics().value("sweep.payload_bytes", transport="pickle") or 0


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert resolve_workers(None, ReproConfig()) == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "7")
        assert resolve_workers(3, ReproConfig(sweep_workers=5)) == 3

    def test_env_beats_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "7")
        assert resolve_workers(None, ReproConfig(sweep_workers=5)) == 7

    def test_config_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert resolve_workers(None, ReproConfig(sweep_workers=5)) == 5

    def test_auto_means_cpu_count(self):
        assert resolve_workers("auto", ReproConfig()) >= 1
        assert resolve_workers(0, ReproConfig()) >= 1

    def test_invalid_value_names_source(self, monkeypatch):
        from repro.errors import SpecError

        with pytest.raises(SpecError, match="workers must be"):
            resolve_workers("garbage", ReproConfig())
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "garbage")
        with pytest.raises(SpecError, match="REPRO_SWEEP_WORKERS"):
            resolve_workers(None, ReproConfig())


class TestGpuPoints:
    def test_serial_matches_direct_measurement(self, machine):
        ex = SweepExecutor(machine, workers=1)
        records = ex.gpu_points(C1, CONFIGS, trials=5, verify=False)
        for config, record in zip(CONFIGS, records):
            direct = measure_gpu_reduction(machine, C1, config, trials=5,
                                           verify=False)
            assert record["bandwidth_gbs"] == direct.bandwidth_gbs
            assert record["value"] == direct.value.item()

    def test_workers_without_deadline_price_in_process(self, machine):
        serial = SweepExecutor(machine, workers=1).gpu_points(
            C1, CONFIGS, trials=5, verify=False
        )
        children = set(multiprocessing.active_children())
        ex = SweepExecutor(machine, workers=2)
        try:
            records = ex.gpu_points(C1, CONFIGS, trials=5, verify=False)
            assert ex._pool is None
            assert set(multiprocessing.active_children()) <= children
        finally:
            ex.close()
        assert canonical_json(records) == canonical_json(serial)

    def test_parallel_matches_serial(self, machine):
        serial = SweepExecutor(machine, workers=1).gpu_points(
            C1, CONFIGS, trials=5, verify=False
        )
        # A task deadline sends each point through the pool.
        pickled = _pickled_bytes()
        ex = SweepExecutor(machine, workers=2, task_timeout_s=60.0)
        try:
            parallel = ex.gpu_points(C1, CONFIGS, trials=5, verify=False)
        finally:
            ex.close()
        assert _pickled_bytes() > pickled
        assert parallel == serial

    def test_collation_preserves_submission_order(self, machine):
        configs = [KernelConfig(teams=t) for t in TEAMS_GRID]
        pickled = _pickled_bytes()
        ex = SweepExecutor(machine, workers=2, task_timeout_s=60.0)
        try:
            records = ex.gpu_points(C1, configs, trials=2, verify=False)
        finally:
            ex.close()
        assert _pickled_bytes() > pickled
        # Bandwidth rises with teams on this grid, so order is observable.
        bws = [r["bandwidth_gbs"] for r in records]
        direct = [
            measure_gpu_reduction(machine, C1, c, trials=2, verify=False
                                  ).bandwidth_gbs
            for c in configs
        ]
        assert bws == direct


class TestCaching:
    def test_second_run_hits(self, machine, tmp_path):
        cache = ResultCache(tmp_path)
        ex = SweepExecutor(machine, workers=1, cache=cache)
        first = ex.gpu_points(C1, CONFIGS, trials=3, verify=False)
        second = ex.gpu_points(C1, CONFIGS, trials=3, verify=False)
        assert second == first
        stage = ex.stats.stage("gpu-sweep")
        assert stage.cache_hits == len(CONFIGS)
        assert stage.computed == len(CONFIGS)

    def test_cache_survives_new_executor(self, machine, tmp_path):
        SweepExecutor(machine, workers=1, cache=ResultCache(tmp_path)).gpu_points(
            C1, CONFIGS, trials=3, verify=False
        )
        ex = SweepExecutor(machine, workers=1, cache=ResultCache(tmp_path))
        ex.gpu_points(C1, CONFIGS, trials=3, verify=False)
        assert ex.stats.stage("gpu-sweep").computed == 0

    def test_different_machine_config_misses(self, tmp_path):
        m1 = Machine(config=ReproConfig(functional_elements_cap=1 << 14))
        m2 = Machine(config=ReproConfig(functional_elements_cap=1 << 15))
        SweepExecutor(m1, cache=ResultCache(tmp_path)).gpu_points(
            C1, [None], trials=3, verify=False
        )
        ex2 = SweepExecutor(m2, cache=ResultCache(tmp_path))
        ex2.gpu_points(C1, [None], trials=3, verify=False)
        assert ex2.stats.stage("gpu-sweep").computed == 1

    def test_no_cache_recomputes(self, machine):
        ex = SweepExecutor(machine, workers=1, cache=None)
        ex.gpu_points(C1, CONFIGS, trials=3, verify=False)
        ex.gpu_points(C1, CONFIGS, trials=3, verify=False)
        stage = ex.stats.stage("gpu-sweep")
        assert stage.cache_hits == 0
        assert stage.computed == 2 * len(CONFIGS)


class TestCoexecSweeps:
    def test_matches_direct_sweep(self, machine):
        config = paper_optimized_config(C3)
        ex = SweepExecutor(machine, workers=1)
        (swept,) = ex.coexec_sweeps(
            [CoexecRequest(case=C3, site=AllocationSite.A1, config=config,
                           trials=5, verify=False)]
        )
        direct = measure_coexec_sweep(machine, C3, AllocationSite.A1, config,
                                      trials=5, verify=False)
        assert swept.measurements == direct.measurements

    def test_cached_roundtrip_bit_identical(self, machine, tmp_path):
        request = CoexecRequest(case=C1, site=AllocationSite.A2, trials=5,
                                verify=False)
        cache = ResultCache(tmp_path)
        (cold,) = SweepExecutor(machine, cache=cache).coexec_sweeps([request])
        (warm,) = SweepExecutor(machine, cache=ResultCache(tmp_path)
                                ).coexec_sweeps([request])
        assert warm.measurements == cold.measurements
        for a, b in zip(warm.measurements, cold.measurements):
            assert type(a.value) is type(b.value)

    def test_explicit_memory_mode_is_separate_key(self, machine, tmp_path):
        cache = ResultCache(tmp_path)
        ex = SweepExecutor(machine, cache=cache)
        um = CoexecRequest(case=C1, site=AllocationSite.A1, trials=3,
                           verify=False, unified_memory=True)
        explicit = CoexecRequest(case=C1, site=AllocationSite.A1, trials=3,
                                 verify=False, unified_memory=False)
        (a,) = ex.coexec_sweeps([um])
        (b,) = ex.coexec_sweeps([explicit])
        assert a.measurements != b.measurements


class TestSweepParametersIntegration:
    def test_executor_path_equals_historical_serial(self, machine):
        baseline = sweep_parameters(machine, C1, trials=3)
        via_pool = sweep_parameters(
            machine, C1, trials=3,
            executor=SweepExecutor(machine, workers=2),
        )
        assert [p.bandwidth_gbs for p in baseline.points] == [
            p.bandwidth_gbs for p in via_pool.points
        ]
        assert [p.config for p in baseline.points] == [
            p.config for p in via_pool.points
        ]
