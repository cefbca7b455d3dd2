"""Tests for the Listing 6 measurement harness."""

import pytest

from repro.core import timing
from repro.core.cases import C1, C2
from repro.core.machine import Machine
from repro.core.optimized import KernelConfig
from repro.core.timing import TRIALS, measure_gpu_reduction
from repro.errors import MeasurementError
from repro.util.units import gb_per_s


class TestMeasurement:
    def test_paper_trial_count(self):
        assert TRIALS == 200  # "N = 200"

    def test_bandwidth_matches_listing6_formula(self, machine):
        m = measure_gpu_reduction(machine, C1, KernelConfig(teams=4096, v=4),
                                  trials=10)
        expected = gb_per_s(C1.input_bytes * 10, m.elapsed_seconds)
        assert m.bandwidth_gbs == pytest.approx(expected)

    def test_elapsed_scales_with_trials(self, machine):
        m10 = measure_gpu_reduction(machine, C1, trials=10)
        m20 = measure_gpu_reduction(machine, C1, trials=20)
        assert m20.elapsed_seconds == pytest.approx(2 * m10.elapsed_seconds)
        # ... and bandwidth is therefore trial-invariant on the GPU path.
        assert m20.bandwidth_gbs == pytest.approx(m10.bandwidth_gbs)

    def test_baseline_flag(self, machine):
        assert measure_gpu_reduction(machine, C1, trials=2).is_baseline
        assert not measure_gpu_reduction(
            machine, C1, KernelConfig(teams=128), trials=2
        ).is_baseline

    def test_efficiency_metric(self, machine):
        m = measure_gpu_reduction(machine, C1, KernelConfig(teams=65536, v=4),
                                  trials=5)
        assert m.efficiency == pytest.approx(m.bandwidth_gbs / 4022.7)

    def test_value_is_verified_reduction(self, machine):
        m = measure_gpu_reduction(machine, C1, trials=2)
        data = machine.workload(C1)
        assert m.value == data.sum(dtype="int32")

    def test_kernel_geometry_exposed(self, machine):
        m = measure_gpu_reduction(machine, C2, trials=2)
        assert m.kernel.geometry.grid == 0xFFFFFF  # the profiled cap

    def test_invalid_trials(self, machine):
        with pytest.raises(MeasurementError):
            measure_gpu_reduction(machine, C1, trials=0)

    def test_label(self, machine):
        m = measure_gpu_reduction(machine, C1, trials=2)
        assert "C1" in m.label() and "baseline" in m.label()


class TestLaunchTrace:
    def test_measurement_records_launch(self, fresh_machine):
        fresh_machine.trace.clear()
        measure_gpu_reduction(fresh_machine, C1,
                              KernelConfig(teams=4096, v=4), trials=2)
        record = fresh_machine.trace.last_launch()
        # Profiling observable: grid matches num_teams = teams / V.
        assert record.grid == 1024
        assert record.from_clause


class TestNoReplay:
    """Every call runs the whole pipeline; none replays an earlier one,
    whatever the telemetry switch says."""

    @pytest.mark.parametrize(
        "switch", ["disabled_telemetry", "telemetry"],
        ids=["telemetry-off", "telemetry-on"],
    )
    def test_repeat_point_launches_and_executes_again(
        self, request, switch, fresh_machine, monkeypatch
    ):
        request.getfixturevalue(switch)
        calls = {"run_kernel": 0, "execute_reduction": 0}
        run_kernel = Machine.run_kernel
        execute = timing.execute_reduction

        def counting_run_kernel(self, *args, **kwargs):
            calls["run_kernel"] += 1
            return run_kernel(self, *args, **kwargs)

        def counting_execute(*args, **kwargs):
            calls["execute_reduction"] += 1
            return execute(*args, **kwargs)

        monkeypatch.setattr(Machine, "run_kernel", counting_run_kernel)
        monkeypatch.setattr(timing, "execute_reduction", counting_execute)
        config = KernelConfig(teams=4096, v=4)
        first = measure_gpu_reduction(fresh_machine, C1, config, trials=10)
        second = measure_gpu_reduction(fresh_machine, C1, config, trials=10)
        assert calls == {"run_kernel": 2, "execute_reduction": 2}
        assert first == second
