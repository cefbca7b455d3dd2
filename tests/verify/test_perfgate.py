"""The perf-regression gate: suite shape, comparison rules, persistence."""

import json

import pytest

from repro.core import timing
from repro.verify import perfgate
from repro.verify.perfgate import (
    BenchReport,
    DEFAULT_THRESHOLD,
    _bench_sim_microbench,
    compare_benchmarks,
    default_baseline_path,
    run_perf_suite,
)


@pytest.fixture(scope="module")
def report():
    # Best-of-3: the committed baseline is microsecond-scale since the
    # slab path landed, so a single noisy run could trip the 4x gate.
    return run_perf_suite(repeats=3)


class TestSuite:
    def test_covers_the_ten_hot_paths(self, report):
        assert sorted(report.benchmarks) == [
            "checkpoint_overhead",
            "membership_tick",
            "ring_lookup",
            "service_p99",
            "sim_microbench",
            "slab_microbench",
            "stream_write",
            "telemetry_overhead",
            "warm_cache_sweep",
        ]
        for entry in report.benchmarks.values():
            assert entry["seconds"] > 0.0
            assert entry["repeats"] == 3

    def test_checkpoint_overhead_within_budget(self, report):
        # The ISSUE acceptance target: checkpointing costs < 5% on a
        # warm-cache streamed run.  Allow measurement noise on top (the
        # two variants are independent best-of-N samples).
        entry = report.benchmarks["checkpoint_overhead"]
        assert entry["overhead_ratio"] < 1.15

    def test_stream_write_publishes_per_record_cost(self, report):
        entry = report.benchmarks["stream_write"]
        assert entry["per_record_s"] == pytest.approx(
            entry["seconds"] / entry["records"]
        )
        # Append is a line template + buffered write; it must
        # stay far below the cost of resolving a point.
        assert entry["per_record_s"] < 1e-3

    def test_cluster_benches_publish_amortized_costs(self, report):
        ring = report.benchmarks["ring_lookup"]
        assert ring["per_lookup_s"] == pytest.approx(
            ring["seconds"] / ring["lookups"]
        )
        # One lookup per forwarded request / job chunk: it must stay
        # far below the cost of resolving a point.
        assert ring["per_lookup_s"] < 1e-3
        tick = report.benchmarks["membership_tick"]
        assert tick["nodes"] == 64
        # A tick fires every lease_s/2 on the coordinator loop; the
        # steady-state sweep must be effectively free.
        assert tick["per_tick_s"] < 1e-3

    def test_meta_records_environment(self, report):
        assert report.meta["statistic"] == "best"
        assert report.meta["functional_cap"] == 1 << 16

    def test_write_round_trips(self, report, tmp_path):
        path = report.write(tmp_path / "bench.json")
        doc = json.loads(path.read_text())
        assert doc == report.to_dict()

    def test_describe_lists_benchmarks(self, report):
        text = report.describe()
        assert "sim_microbench" in text and "ms" in text

    def test_sim_microbench_times_the_whole_pipeline(
        self, fresh_machine, monkeypatch
    ):
        # One warm-up call plus one per repeat, each of which must run
        # the functional executor: a replayed measurement would time a
        # lookup instead of the model.
        calls = []
        execute = timing.execute_reduction

        def counting_execute(*args, **kwargs):
            calls.append(1)
            return execute(*args, **kwargs)

        monkeypatch.setattr(timing, "execute_reduction", counting_execute)
        _bench_sim_microbench(fresh_machine, repeats=2)
        assert len(calls) == 3

    def test_telemetry_overhead_alternates_off_and_on(
        self, disabled_telemetry, monkeypatch
    ):
        # Two warm-ups (off, on), then one off/on pair per repeat, so
        # both sides of each ratio see the same machine load.
        seen = []

        def fake_measure(*args, **kwargs):
            seen.append(disabled_telemetry.enabled)

        monkeypatch.setattr(perfgate, "measure_gpu_reduction", fake_measure)
        entry = perfgate._bench_telemetry_overhead(None, repeats=3)
        assert seen[2:] == [False, True] * 3
        assert len(seen) == 8
        assert entry["seconds"] > 0.0
        assert entry["overhead_ratio"] > 0.0
        assert disabled_telemetry.enabled is False  # switch restored


class TestCompare:
    def _report(self, **seconds):
        return BenchReport(
            benchmarks={
                name: {"seconds": s, "repeats": 1}
                for name, s in seconds.items()
            }
        )

    def test_no_regression_within_threshold(self):
        current = self._report(a=0.002, b=0.010)
        baseline = self._report(a=0.001, b=0.009).to_dict()
        assert compare_benchmarks(current, baseline) == []

    def test_regression_beyond_threshold(self):
        current = self._report(a=0.010)
        baseline = self._report(a=0.001).to_dict()
        (rec,) = compare_benchmarks(current, baseline)
        assert rec["benchmark"] == "a"
        assert rec["ratio"] == pytest.approx(10.0)
        assert rec["threshold"] == DEFAULT_THRESHOLD

    def test_speedups_never_fail(self):
        current = self._report(a=0.0001)
        baseline = self._report(a=0.1).to_dict()
        assert compare_benchmarks(current, baseline) == []

    def test_unmatched_benchmarks_skipped(self):
        current = self._report(new_bench=5.0)
        baseline = self._report(retired=0.001).to_dict()
        assert compare_benchmarks(current, baseline) == []

    def test_custom_threshold(self):
        current = self._report(a=0.0015)
        baseline = self._report(a=0.001).to_dict()
        assert compare_benchmarks(current, baseline, threshold=1.4)
        assert not compare_benchmarks(current, baseline, threshold=1.6)

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_benchmarks(self._report(), {}, threshold=1.0)


class TestBaseline:
    def test_committed_baseline_exists_and_parses(self):
        path = default_baseline_path()
        assert path.name == "BENCH_verify.json"
        doc = json.loads(path.read_text())
        assert sorted(doc["benchmarks"]) == [
            "checkpoint_overhead",
            "membership_tick",
            "ring_lookup",
            "service_p99",
            "sim_microbench",
            "slab_microbench",
            "stream_write",
            "telemetry_overhead",
            "warm_cache_sweep",
        ]
        # The slab benchmark also publishes its amortized per-point
        # cost; the budget is 10 us/point at slabs >= 1024.
        assert doc["benchmarks"]["slab_microbench"]["per_point_s"] < 10e-6

    def test_current_run_passes_the_committed_gate(self, report):
        # The actual CI gate: today's numbers vs the committed baseline.
        baseline = json.loads(default_baseline_path().read_text())
        assert compare_benchmarks(report, baseline) == []
