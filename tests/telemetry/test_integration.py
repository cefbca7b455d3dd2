"""End-to-end telemetry: full-pipeline spans, aggregate consistency,
worker re-parenting across the process pool, and the disabled-path
overhead bound."""

import time

import pytest

from repro import Machine, ReproConfig
from repro.core.cases import C1, PAPER_CASES
from repro.core.coexec import AllocationSite
from repro.core.optimized import KernelConfig
from repro.evaluation.figures import generate_coexec_figure
from repro.evaluation.tables import generate_table1
from repro.sweep import SweepExecutor, canonical_json
from repro.telemetry import chrome_trace, publish_counts, span
from repro.telemetry.state import _NOOP_CONTEXT

CONFIGS = [None, KernelConfig(teams=1024, v=4)]


@pytest.fixture()
def small_machine():
    return Machine(config=ReproConfig(functional_elements_cap=1 << 14))


def _coexec_figure(machine, executor):
    """A serial Figure-2a sweep over every paper case.

    Table 1 prices its points through the slab, one span per stage; the
    co-execution sweep still crosses the compiler, OpenMP runtime, GPU
    model and simulator once per point.
    """
    return generate_coexec_figure(
        machine, PAPER_CASES, AllocationSite.A1, optimized=False,
        trials=5, executor=executor,
    )


class TestPipelineSpans:
    def test_table1_covers_four_subsystems(self, telemetry, small_machine):
        from repro.compiler.cache import clear_compile_cache

        clear_compile_cache()  # force real compile spans, not just hits
        executor = SweepExecutor(small_machine, workers=1)
        with span("repro.table1", category="cli"):
            generate_table1(small_machine, trials=5, executor=executor)
        with span("repro.coexec", category="cli"):
            _coexec_figure(
                small_machine, SweepExecutor(small_machine, workers=1)
            )

        spans = telemetry.recorder.snapshot()
        by_id = {sp.span_id: sp for sp in spans}

        # Nesting is closed: every parent_id refers to a recorded span.
        dangling = [sp for sp in spans
                    if sp.parent_id is not None and sp.parent_id not in by_id]
        assert dangling == []

        # Everything hangs off the two CLI roots.
        roots = [sp for sp in spans if sp.parent_id is None]
        assert [sp.name for sp in roots] == ["repro.table1", "repro.coexec"]

        def root_of(sp):
            while sp.parent_id is not None:
                sp = by_id[sp.parent_id]
            return sp.name

        coexec = [sp for sp in spans if root_of(sp) == "repro.coexec"]
        assert {"compiler", "openmp", "gpu", "sweep"} <= {
            sp.category for sp in coexec
        }

        # Table 1's slab spans sit under its stages and price every
        # point its executor computed.
        slabs = [sp for sp in spans if sp.name == "sweep.slab"]
        assert all(root_of(sp) == "repro.table1" for sp in slabs)
        assert all(by_id[sp.parent_id].name == "sweep.stage" for sp in slabs)
        computed = sum(st.computed for st in executor.stats.stages.values())
        assert computed > 0
        assert sum(sp.attributes["points"] for sp in slabs) == computed

    def test_coexec_drives_the_sim_engine_span(
        self, telemetry, small_machine
    ):
        from repro.core.coexec import AllocationSite, measure_coexec_sweep

        measure_coexec_sweep(
            small_machine, C1, AllocationSite.A1,
            p_grid=(0.0, 0.5), trials=2, verify=False,
        )
        spans = telemetry.recorder.snapshot()
        engine_spans = [sp for sp in spans if sp.name == "engine.run"]
        assert engine_spans
        assert all(sp.category == "sim" for sp in engine_spans)
        assert all("sim_seconds" in sp.attributes for sp in engine_spans)
        assert {"cpu", "sim"} <= {sp.category for sp in spans}

    def test_metric_aggregates_match_stats_and_trace(
        self, telemetry, small_machine
    ):
        executor = SweepExecutor(small_machine, workers=1)
        records = executor.gpu_points(C1, CONFIGS, trials=3, verify=False)
        assert len(records) == len(CONFIGS)

        reg = telemetry.registry
        # SweepStats is a view over the same registry when telemetry is on.
        assert executor.stats.stages  # instrumented stage exists
        assert reg.total("sweep.stage.points") == sum(
            st.points for st in executor.stats.stages.values()
        )
        assert reg.total("sweep.stage.computed") == len(CONFIGS)
        assert reg.total("sweep.stage.errors") == 0
        # The trace keeps its own counts; once published, launches by
        # kernel sum to the trace's count.
        publish_counts(reg, small_machine.trace)
        assert sum(
            m["value"] for m in reg.snapshot()
            if m["name"] == "sim.kernel_launches"
        ) == small_machine.trace.n_launches
        assert small_machine.trace.n_launches > 0

    def test_stage_error_counter_increments(self, telemetry, small_machine):
        executor = SweepExecutor(small_machine, workers=1)
        with pytest.raises(KeyError):
            executor.run("no-such-kind", [()], stage="broken")
        assert executor.stats.stages["broken"].errors == 1
        assert "errors" in executor.stats.render()
        assert telemetry.registry.value(
            "sweep.stage.errors", stage="broken"
        ) == 1
        # The stage span survives and is marked as errored.
        (stage_span,) = [sp for sp in telemetry.recorder.snapshot()
                         if sp.name == "sweep.stage"]
        assert stage_span.attributes["error"] is True


def _pooled_points(machine):
    """Price CONFIGS where gpu_point crosses a process boundary: a task
    deadline sends each point to the pool as its own task."""
    executor = SweepExecutor(machine, workers=2, task_timeout_s=60.0)
    try:
        executor.gpu_points(C1, CONFIGS, trials=3, verify=False)
    finally:
        executor.close()


class TestWorkerReparenting:
    def test_pool_spans_ship_back_and_nest_under_stage(
        self, telemetry, small_machine
    ):
        _pooled_points(small_machine)

        spans = telemetry.recorder.snapshot()
        by_id = {sp.span_id: sp for sp in spans}
        stage = next(sp for sp in spans if sp.name == "sweep.stage")
        points = [sp for sp in spans if sp.name == "sweep.point"]
        assert len(points) == len(CONFIGS)
        worker_points = [sp for sp in points
                         if sp.attributes.get("worker")]
        assert worker_points == points, "expected worker-recorded spans"
        # Every worker span hangs off the coordinator's stage span —
        # either inherited at fork time or re-parented by ingest()
        # (spawn pools ship root spans; test_spans covers that path).
        for sp in worker_points:
            assert sp.parent_id == stage.span_id
            assert sp.pid != stage.pid  # really crossed a process boundary

        # Each point is priced as a one-point slab inside its worker.
        slabs = [sp for sp in spans if sp.name == "sweep.slab"]
        assert len(slabs) == len(CONFIGS)
        for sp in slabs:
            parent = by_id[sp.parent_id]
            assert parent.name == "sweep.point"
            assert parent.pid == sp.pid != stage.pid
            assert sp.attributes["points"] == 1

        # The exported chrome trace keeps the linkage intact.
        doc = chrome_trace(spans)
        by_id = {e["args"]["span_id"]: e for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        for sp in worker_points:
            assert by_id[sp.span_id]["args"]["parent_id"] in by_id

    def test_span_ids_unique_across_processes(
        self, telemetry, small_machine
    ):
        _pooled_points(small_machine)
        spans = telemetry.recorder.snapshot()
        assert len({sp.pid for sp in spans}) > 1
        assert len({sp.span_id for sp in spans}) == len(spans)
        # Span ids carry a hex pid prefix: that is what makes
        # cross-process ids collision-free.
        for sp in spans:
            assert sp.span_id.startswith(f"{sp.pid:x}-")


class TestDisabledPath:
    def test_results_identical_with_and_without_telemetry(
        self, disabled_telemetry, monkeypatch
    ):
        """Telemetry changes timing, never the path: every executor shape
        prices gpu_point through the slab with spans on or off —
        in-process without a deadline, in pool workers with one."""
        from repro.sim import batch

        evaluate = batch.evaluate_gpu_slab
        slab_calls = []

        def counting_evaluate(machine, payloads):
            slab_calls.append(len(payloads))
            return evaluate(machine, payloads)

        monkeypatch.setattr(batch, "evaluate_gpu_slab", counting_evaluate)
        config = ReproConfig(functional_elements_cap=1 << 14)
        reg = disabled_telemetry.registry
        cells = {
            "workers 1": {"workers": 1},
            "workers 2": {"workers": 2},
            "timeout": {"workers": 1, "task_timeout_s": 30.0},
            "workers 2, timeout": {"workers": 2, "task_timeout_s": 30.0},
        }
        for cell, kwargs in cells.items():
            runs = {}
            for enabled in (False, True):
                slab_calls.clear()
                pickled = reg.value("sweep.payload_bytes",
                                    transport="pickle") or 0
                disabled_telemetry.enabled = enabled
                executor = SweepExecutor(Machine(config=config), **kwargs)
                try:
                    runs[enabled] = canonical_json(executor.gpu_points(
                        C1, CONFIGS, trials=3, verify=False
                    ))
                finally:
                    disabled_telemetry.enabled = False
                    executor.close()
                after = reg.value("sweep.payload_bytes",
                                  transport="pickle") or 0
                if executor.task_timeout_s is None:
                    # One slab, here, whatever the worker count.
                    assert slab_calls == [len(CONFIGS)], (cell, enabled)
                    assert after == pickled, (cell, enabled)
                else:
                    # One one-point slab per task, in the workers.
                    assert slab_calls == [], (cell, enabled)
                    assert after > pickled, (cell, enabled)
            assert runs[True] == runs[False], cell  # byte-identical records

    def test_registry_is_the_same_with_spans_on_or_off(
        self, disabled_telemetry
    ):
        """The switch only adds spans: one workload leaves the same global
        registry either way (the stage counters' registry aside), and the
        counts the trace and the compile cache keep publish equally."""
        from repro.compiler.cache import cached_compile, clear_compile_cache
        from repro.core.baseline import baseline_program
        from repro.core.cases import C2
        from repro.core.timing import measure_gpu_reduction
        from repro.faults.injector import fire, injected

        def run(enabled):
            clear_compile_cache()
            disabled_telemetry.reset()
            disabled_telemetry.enabled = enabled
            try:
                machine = Machine(
                    config=ReproConfig(functional_elements_cap=1 << 14)
                )
                SweepExecutor(machine, workers=1).gpu_points(
                    C1, CONFIGS, trials=3
                )
                measure_gpu_reduction(machine, C1, CONFIGS[1], trials=3)
                cached_compile(baseline_program(C2))  # miss
                cached_compile(baseline_program(C2))  # hit
                with injected("cache.get:eio:count=1"):
                    assert fire("cache.get") is not None
            finally:
                disabled_telemetry.enabled = False
            reg = disabled_telemetry.registry

            def kept():
                return [m for m in reg.snapshot()
                        if not m["name"].startswith("sweep.stage.")]

            left = kept()
            publish_counts(reg, machine.trace)
            spans = len(disabled_telemetry.recorder.snapshot())
            return left, kept(), spans

        off_left, off_published, off_spans = run(False)
        on_left, on_published, on_spans = run(True)
        clear_compile_cache()
        assert off_spans == 0
        assert on_spans > 0
        assert on_left == off_left
        assert on_published == off_published
        names = {m["name"] for m in off_published}
        assert {
            "compiler.cache.hits", "compiler.cache.misses",
            "sim.kernel_launches", "faults.injected",
        } <= names

    def test_disabled_overhead_under_five_percent(
        self, disabled_telemetry, small_machine
    ):
        """Bound the no-op cost against a real serial co-execution sweep.

        Direct A/B wall-clock comparison of two sweep runs is noisy far
        beyond 5% on shared CI hardware, so measure each factor tightly:
        the wall time of the real sweep, the number of telemetry
        call-sites it would hit (counted from an enabled run), and the
        per-call cost of the disabled fast path — then require
        ``sites * cost_per_call < 5% * wall``.
        """
        executor = SweepExecutor(small_machine, workers=1)
        t0 = time.perf_counter()
        _coexec_figure(small_machine, executor)
        wall = time.perf_counter() - t0

        disabled_telemetry.enabled = True
        try:
            counting = SweepExecutor(
                Machine(config=small_machine.config), workers=1
            )
            _coexec_figure(counting.machine, counting)
        finally:
            disabled_telemetry.enabled = False
        sites = len(disabled_telemetry.recorder.snapshot())
        assert sites > 100  # the pipeline really is instrumented

        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            with span("probe", category="test"):
                pass
        per_call = (time.perf_counter() - t0) / n
        assert span("probe", category="test") is _NOOP_CONTEXT

        overhead = sites * per_call
        assert overhead < 0.05 * wall, (
            f"disabled telemetry would add {overhead * 1e3:.3f} ms "
            f"({sites} sites x {per_call * 1e9:.0f} ns) "
            f"to a {wall * 1e3:.1f} ms sweep"
        )
