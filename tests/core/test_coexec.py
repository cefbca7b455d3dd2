"""Tests for CPU+GPU co-execution (Listings 7-8)."""

import numpy as np
import pytest

import repro.core.coexec as coexec_mod
from repro import Machine, ReproConfig
from repro.core.cases import C1, C2, C3
from repro.core.coexec import (
    AllocationSite,
    CPU_PART_GRID,
    measure_coexec_sweep,
)
from repro.core.optimized import KernelConfig
from repro.errors import MeasurementError, VerificationError


OPT_C1 = KernelConfig(teams=65536, v=4)


class TestPGrid:
    def test_listing8_grid(self):
        # p ranges 0..1 in steps of 0.1.
        assert CPU_PART_GRID == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9, 1.0)


@pytest.fixture(scope="module")
def a1_sweep(machine):
    return measure_coexec_sweep(machine, C1, AllocationSite.A1, OPT_C1,
                                trials=200, verify=False)


@pytest.fixture(scope="module")
def a2_sweep(machine):
    return measure_coexec_sweep(machine, C1, AllocationSite.A2, OPT_C1,
                                trials=200, verify=False)


class TestSweepStructure:
    def test_covers_p_grid(self, a1_sweep):
        assert [m.cpu_part for m in a1_sweep.measurements] == list(CPU_PART_GRID)

    def test_endpoints(self, a1_sweep):
        assert a1_sweep.gpu_only.cpu_part == 0.0
        assert a1_sweep.cpu_only.cpu_part == 1.0

    def test_gpu_only_has_no_cpu_work(self, a1_sweep):
        assert a1_sweep.gpu_only.cpu_seconds_steady == 0.0

    def test_cpu_only_has_no_gpu_work(self, a1_sweep):
        assert a1_sweep.cpu_only.gpu_seconds_steady == 0.0

    def test_at_unknown_p_raises(self, a1_sweep):
        with pytest.raises(KeyError):
            a1_sweep.at(0.55)

    def test_series_and_speedups_aligned(self, a1_sweep):
        series = a1_sweep.series()
        speedups = a1_sweep.speedup_over_gpu_only()
        assert len(series) == len(speedups) == 11
        assert speedups[0][1] == pytest.approx(1.0)


class TestA1Residency:
    def test_migration_only_at_p0(self, a1_sweep):
        migs = [m.migration_seconds for m in a1_sweep.measurements]
        assert migs[0] > 0
        assert all(m == 0.0 for m in migs[1:])

    def test_corun_beats_both_endpoints(self, a1_sweep):
        best = a1_sweep.best()
        assert 0.0 < best.cpu_part < 1.0
        assert best.bandwidth_gbs > a1_sweep.gpu_only.bandwidth_gbs
        assert best.bandwidth_gbs > a1_sweep.cpu_only.bandwidth_gbs

    def test_cpu_only_reads_remotely(self, a1_sweep, a2_sweep):
        # A1's p=1 reads HBM-resident pages over C2C: slower than A2's.
        assert a1_sweep.cpu_only.bandwidth_gbs < a2_sweep.cpu_only.bandwidth_gbs


class TestA2Residency:
    def test_migration_repaid_every_p(self, a2_sweep):
        migs = [m.migration_seconds for m in a2_sweep.measurements]
        # Every p with GPU work (p < 1) pays migration afresh.
        assert all(m > 0 for m in migs[:-1])
        assert migs[-1] == 0.0

    def test_migration_shrinks_with_gpu_share(self, a2_sweep):
        migs = [m.migration_seconds for m in a2_sweep.measurements[:-1]]
        assert all(m2 < m1 for m1, m2 in zip(migs, migs[1:]))

    def test_cpu_only_at_full_local_bandwidth(self, a2_sweep, machine):
        expected = C1.input_bytes / (machine.cpu.stream_bandwidth_gbs * 1e9)
        assert a2_sweep.cpu_only.cpu_seconds_steady == pytest.approx(
            expected, rel=0.01
        )

    def test_a1_best_beats_a2_best(self, a1_sweep, a2_sweep):
        assert a1_sweep.best().bandwidth_gbs > 1.2 * a2_sweep.best().bandwidth_gbs


class TestFunctionalResults:
    def test_partial_sums_combine_correctly(self, fresh_machine):
        sweep = measure_coexec_sweep(
            fresh_machine, C1.scaled(1 << 14, name="C1s"),
            AllocationSite.A1, KernelConfig(teams=128, v=4),
            p_grid=(0.0, 0.5, 1.0), trials=2, verify=True,
        )
        data = fresh_machine.workload(C1.scaled(1 << 14, name="C1s"))
        expected = data.sum(dtype=np.int32)
        for m in sweep.measurements:
            assert m.value == expected

    def test_int8_coexec_widens(self, fresh_machine):
        small_c2 = C2.scaled(1 << 14, name="C2s")
        sweep = measure_coexec_sweep(
            fresh_machine, small_c2, AllocationSite.A2,
            KernelConfig(teams=128, v=32), p_grid=(0.0, 0.5, 1.0),
            trials=2, verify=True,
        )
        assert sweep.measurements[1].value.dtype == np.dtype("int64")


class TestValidation:
    def test_descending_grid_rejected(self, machine):
        with pytest.raises(MeasurementError, match="ascending"):
            measure_coexec_sweep(machine, C1, AllocationSite.A1, None,
                                 p_grid=(0.5, 0.0), trials=2, verify=False)

    def test_zero_trials_rejected(self, machine):
        with pytest.raises(MeasurementError):
            measure_coexec_sweep(machine, C1, AllocationSite.A1, None,
                                 trials=0, verify=False)

    def test_out_of_range_p_rejected(self, machine):
        with pytest.raises(ValueError):
            measure_coexec_sweep(machine, C1, AllocationSite.A1, None,
                                 p_grid=(0.0, 1.5), trials=2, verify=False)


class TestValueMemo:
    """One machine computes each co-execution value once.

    The functional value reads neither the allocation site nor the page
    state, so an A2 sweep replays the values of the A1 sweep before it.
    """

    SMALL = ReproConfig(functional_elements_cap=1 << 12)

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Count the device and host executor calls co-execution makes."""
        calls = {"device": 0, "host": 0}
        real_device = coexec_mod.execute_reduction
        real_host = coexec_mod.execute_host_reduction

        def device(data, kernel, second=None):
            calls["device"] += 1
            return real_device(data, kernel, second)

        def host(data, cpu, rtype):
            calls["host"] += 1
            return real_host(data, cpu, rtype)

        monkeypatch.setattr(coexec_mod, "execute_reduction", device)
        monkeypatch.setattr(coexec_mod, "execute_host_reduction", host)
        return calls

    @staticmethod
    def _values(sweep):
        return [(m.value.dtype, m.value.tobytes()) for m in sweep.measurements]

    @pytest.mark.parametrize("base", [C1, C3], ids=lambda c: c.name)
    @pytest.mark.parametrize("config", [None, KernelConfig(teams=128, v=4)],
                             ids=["baseline", "optimized"])
    def test_a1_then_a2_computes_each_value_once(self, counted, base,
                                                 config):
        case = base.scaled(1 << 16, name=f"{base.name}m")
        machine = Machine(config=self.SMALL)
        a1 = measure_coexec_sweep(machine, case, AllocationSite.A1, config,
                                  trials=5, verify=True)
        # A device part at every p < 1, a host part at every p > 0.
        assert counted == {"device": 10, "host": 10}
        a2 = measure_coexec_sweep(machine, case, AllocationSite.A2, config,
                                  trials=5, verify=True)
        assert counted == {"device": 10, "host": 10}
        for sweep in (a1, a2):
            alone = measure_coexec_sweep(
                Machine(config=self.SMALL), case, sweep.site, config,
                trials=5, verify=True)
            assert sweep.measurements == alone.measurements
            assert self._values(sweep) == self._values(alone)
        assert counted == {"device": 30, "host": 30}

    def test_hits_are_verified(self, monkeypatch):
        # An unverified A1 sweep stores a corrupted value; the A2 sweep
        # that asks for verification replays it and must reject it.
        case = C1.scaled(1 << 12, name="C1v")
        config = KernelConfig(teams=128, v=4)
        machine = Machine(config=self.SMALL)
        real = coexec_mod.execute_host_reduction
        monkeypatch.setattr(
            coexec_mod, "execute_host_reduction",
            lambda data, cpu, rtype: real(data, cpu, rtype) + 7,
        )
        measure_coexec_sweep(machine, case, AllocationSite.A1, config,
                             p_grid=(0.5,), trials=1, verify=False)
        calls = []
        monkeypatch.setattr(
            coexec_mod, "execute_host_reduction",
            lambda data, cpu, rtype: calls.append(1) or real(data, cpu, rtype),
        )
        with pytest.raises(VerificationError):
            measure_coexec_sweep(machine, case, AllocationSite.A2, config,
                                 p_grid=(0.5,), trials=1, verify=True)
        assert calls == []  # the rejected value was a hit

    def test_a_failed_value_is_not_stored(self, monkeypatch):
        case = C1.scaled(1 << 12, name="C1f")
        config = KernelConfig(teams=128, v=4)
        machine = Machine(config=self.SMALL)
        real = coexec_mod.execute_host_reduction
        monkeypatch.setattr(
            coexec_mod, "execute_host_reduction",
            lambda data, cpu, rtype: real(data, cpu, rtype) + 7,
        )
        with pytest.raises(VerificationError):
            measure_coexec_sweep(machine, case, AllocationSite.A1, config,
                                 p_grid=(0.5,), trials=1, verify=True)
        monkeypatch.setattr(coexec_mod, "execute_host_reduction", real)
        again = measure_coexec_sweep(machine, case, AllocationSite.A1,
                                     config, p_grid=(0.5,), trials=1,
                                     verify=False)
        alone = measure_coexec_sweep(Machine(config=self.SMALL), case,
                                     AllocationSite.A1, config,
                                     p_grid=(0.5,), trials=1, verify=False)
        assert self._values(again) == self._values(alone)

    def test_the_reference_is_computed_once_per_machine(self, monkeypatch):
        # Every p of a verified sweep compares its value with the same
        # whole-array reference; the value layer computes it once, and
        # the A2 sweep and the slab on that machine reuse it.
        import repro.sim.values as values_mod
        from repro.sim.batch import evaluate_gpu_slab

        calls = []
        real = values_mod.reference_result
        monkeypatch.setattr(
            values_mod, "reference_result",
            lambda *args: calls.append(args[1:]) or real(*args),
        )
        case = C1.scaled(1 << 16, name="C1r")
        config = KernelConfig(teams=128, v=4)
        machine = Machine(config=self.SMALL)
        for site in (AllocationSite.A1, AllocationSite.A2):
            sweep = measure_coexec_sweep(machine, case, site, config,
                                         trials=5, verify=True)
            assert len(sweep.measurements) == len(CPU_PART_GRID)
        evaluate_gpu_slab(machine, [(case, config, 5, True)])
        assert len(calls) == 1
        measure_coexec_sweep(Machine(config=self.SMALL), case,
                             AllocationSite.A1, config, trials=5,
                             verify=True)
        assert len(calls) == 2

    def test_other_config_cap_or_profile_is_a_miss(self, counted):
        case = C3.scaled(1 << 16, name="C3k")
        machine = Machine(config=self.SMALL)

        def run(machine, config, site=AllocationSite.A1):
            measure_coexec_sweep(machine, case, site, config,
                                 p_grid=(0.5,), trials=1, verify=True)

        run(machine, KernelConfig(teams=128, v=4))
        assert counted == {"device": 1, "host": 1}
        run(machine, KernelConfig(teams=128, v=4), AllocationSite.A2)
        assert counted == {"device": 1, "host": 1}
        run(machine, KernelConfig(teams=256, v=4))
        assert counted == {"device": 2, "host": 2}
        run(Machine(config=ReproConfig(functional_elements_cap=1 << 13)),
            KernelConfig(teams=128, v=4))
        assert counted == {"device": 3, "host": 3}
        run(Machine(config=ReproConfig(functional_elements_cap=1 << 12,
                                       machine_profile="v100")),
            KernelConfig(teams=128, v=4))
        assert counted == {"device": 4, "host": 4}
