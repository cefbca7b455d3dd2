"""Hierarchical spans: nesting, IDs, worker shipping, the disabled path."""

import os
import threading

import pytest

from repro.telemetry import Span, SpanRecorder, span
from repro.telemetry.spans import NOOP_SPAN
from repro.telemetry.state import _NOOP_CONTEXT


class TestSpanRecorder:
    def test_parent_linkage(self):
        rec = SpanRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert rec.current() is outer
        assert outer.parent_id is None
        assert rec.current() is None

    def test_finished_order_and_durations_nest(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        inner, outer = rec.finished
        assert (inner.name, outer.name) == ("inner", "outer")
        # Children close before parents, and lie within the parent window.
        assert outer.start <= inner.start
        assert inner.end <= outer.end + 1e-9

    def test_ids_are_unique_and_process_qualified(self):
        rec = SpanRecorder()
        for _ in range(5):
            with rec.span("s"):
                pass
        ids = [sp.span_id for sp in rec.finished]
        assert len(set(ids)) == 5
        pid, tid = os.getpid(), threading.get_ident()
        assert all(sp_id.startswith(f"{pid:x}-{tid:x}-") for sp_id in ids)
        assert all((sp.pid, sp.tid) == (pid, tid) for sp in rec.finished)

    def test_attributes_via_kwargs_and_set(self):
        rec = SpanRecorder()
        with rec.span("s", category="test", kernel="rdx") as sp:
            sp.set(grid=1024, block=128)
        (done,) = rec.finished
        assert done.category == "test"
        assert done.attributes == {"kernel": "rdx", "grid": 1024, "block": 128}

    def test_exception_marks_error_and_propagates(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            with rec.span("boom"):
                raise ValueError("no")
        (sp,) = rec.finished
        assert sp.attributes["error"] is True
        assert sp.duration >= 0.0
        assert rec.current() is None  # stack unwound

    def test_threads_get_independent_stacks(self):
        rec = SpanRecorder()
        seen = {}

        def worker():
            with rec.span("t") as sp:
                seen["parent"] = sp.parent_id

        with rec.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The other thread's span must NOT parent under this thread's.
        assert seen["parent"] is None
        assert len(rec.finished) == 2

    def test_round_trip_dict(self):
        rec = SpanRecorder()
        with rec.span("s", category="c", k="v"):
            pass
        (sp,) = rec.finished
        clone = Span.from_dict(sp.to_dict())
        assert clone == sp


class TestWorkerShipping:
    def test_export_since_mark(self):
        rec = SpanRecorder()
        with rec.span("before"):
            pass
        mark = rec.mark()
        with rec.span("after"):
            pass
        exported = rec.export_since(mark)
        assert [d["name"] for d in exported] == ["after"]
        assert all(isinstance(d, dict) for d in exported)

    def test_ingest_reparents_roots_only(self):
        worker = SpanRecorder()
        with worker.span("point"):
            with worker.span("leaf"):
                pass
        shipped = worker.export_since(0)

        coord = SpanRecorder()
        with coord.span("stage") as stage:
            adopted = coord.ingest(shipped, parent_id=stage.span_id)
        by_name = {sp.name: sp for sp in adopted}
        assert by_name["point"].parent_id == stage.span_id
        assert by_name["point"].attributes["reparented"] is True
        # The leaf keeps its worker-side parent (the point span).
        assert by_name["leaf"].parent_id == by_name["point"].span_id
        assert "reparented" not in by_name["leaf"].attributes
        assert set(sp.name for sp in coord.snapshot()) == {
            "point", "leaf", "stage"
        }


class TestGlobalHelpers:
    def test_span_records_when_enabled(self, telemetry):
        with span("outer", category="test") as outer:
            with span("inner", category="test") as inner:
                inner.set(n=1)
        names = [sp.name for sp in telemetry.recorder.snapshot()]
        assert names == ["inner", "outer"]
        assert outer is not NOOP_SPAN

    def test_disabled_span_is_shared_noop(self, disabled_telemetry):
        ctx = span("anything", category="test", ignored=1)
        assert ctx is _NOOP_CONTEXT
        with ctx as sp:
            assert sp is NOOP_SPAN
            assert sp.set(a=1) is sp
        assert disabled_telemetry.recorder.snapshot() == []
