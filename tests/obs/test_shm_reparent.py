"""Worker span re-parenting across the shared-memory slab transport.

The slab pool ships each chunk's spans back beside its response slab;
the coordinator adopts them under the active ``sweep.stage`` span
(``SpanRecorder.ingest``), so a traced service batch keeps one connected
tree even though the evaluation happened in another process over shm.
"""

from repro.core.cases import C1
from repro.core.optimized import KernelConfig
from repro.sweep.executor import SweepExecutor


def _configs(n):
    return [KernelConfig(teams=1 << (6 + i), v=4, threads=256)
            for i in range(n)]


class TestSlabSpanReparenting:
    def test_worker_spans_adopted_under_stage(self, telemetry, machine):
        executor = SweepExecutor(machine, workers=2, cache=None)
        try:
            records = executor.gpu_points(C1, _configs(4), trials=2)
        finally:
            executor.close()
        assert len(records) == 4
        assert all(r["bandwidth_gbs"] > 0 for r in records)

        spans = telemetry.recorder.snapshot()
        by_id = {sp.span_id: sp for sp in spans}
        stages = [sp for sp in spans if sp.name == "sweep.stage"]
        points = [sp for sp in spans if sp.name == "sweep.point"]
        slabs = [sp for sp in spans if sp.name == "slab.evaluate"]
        assert len(stages) == 1
        assert points and slabs

        coordinator_pid = stages[0].pid
        for sp in points:
            # Worker-side spans: another process, hanging off the
            # coordinator's stage span after adoption.
            assert sp.pid != coordinator_pid
            assert sp.parent_id == stages[0].span_id
            assert sp.attributes.get("worker") is True
        for sp in slabs:
            assert sp.pid != coordinator_pid
            parent = by_id[sp.parent_id]
            assert parent.name == "sweep.point"
            assert parent.pid == sp.pid

        # Chunks cover all four points between them.
        assert sum(sp.attributes["points"] for sp in slabs) == 4

    def test_span_ids_do_not_collide_across_processes(
        self, telemetry, machine
    ):
        executor = SweepExecutor(machine, workers=2, cache=None)
        try:
            executor.gpu_points(C1, _configs(4), trials=2)
        finally:
            executor.close()
        spans = telemetry.recorder.snapshot()
        assert len({sp.span_id for sp in spans}) == len(spans)
        # Span ids carry a hex pid prefix: that is what makes
        # cross-process ids collision-free.
        for sp in spans:
            assert sp.span_id.startswith(f"{sp.pid:x}-")
