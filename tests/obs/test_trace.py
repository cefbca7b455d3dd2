"""TraceContext codec, deterministic sampling, and async-safe spans."""

import pytest

from repro.obs.trace import TraceContext, mint_context, sample_decision

_TRACE_ID = "0123456789abcdef0123456789abcdef"


class TestHeaderCodec:
    def test_roundtrip_with_parent(self):
        ctx = TraceContext(trace_id=_TRACE_ID, parent_id="12-34-5")
        assert ctx.to_header() == f"{_TRACE_ID};12-34-5;1"
        assert TraceContext.from_header(ctx.to_header()) == ctx

    def test_roundtrip_root(self):
        ctx = TraceContext(trace_id=_TRACE_ID, sampled=False)
        assert ctx.to_header() == f"{_TRACE_ID};-;0"
        parsed = TraceContext.from_header(ctx.to_header())
        assert parsed == ctx
        assert parsed.parent_id is None
        assert parsed.sampled is False

    def test_surrounding_whitespace_tolerated(self):
        parsed = TraceContext.from_header(f"  {_TRACE_ID};-;1 ")
        assert parsed is not None and parsed.trace_id == _TRACE_ID

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "",
            _TRACE_ID,  # one part
            f"{_TRACE_ID};-",  # two parts
            f"{_TRACE_ID};-;1;extra",  # four parts
            "not-hex-at-all;-;1",
            f"{_TRACE_ID};-;2",  # sampling bit out of range
            f"{_TRACE_ID};-;yes",
            ";-;1",  # empty trace id
        ],
    )
    def test_malformed_is_none(self, text):
        assert TraceContext.from_header(text) is None

    def test_child_reroots_only_the_parent(self):
        ctx = TraceContext(trace_id=_TRACE_ID, parent_id="a", sampled=True)
        child = ctx.child("b")
        assert child.parent_id == "b"
        assert child.trace_id == ctx.trace_id
        assert child.sampled is ctx.sampled
        assert ctx.parent_id == "a"  # frozen original untouched


class TestSampling:
    def test_edge_rates(self):
        assert sample_decision("anything", 1.0) is True
        assert sample_decision("anything", 0.0) is False
        assert sample_decision("anything", -0.5) is False
        assert sample_decision("anything", 2.0) is True

    def test_deterministic(self):
        for fingerprint in ("gpu-abc", "gpu-def", "cpu-123"):
            first = sample_decision(fingerprint, 0.5)
            assert all(
                sample_decision(fingerprint, 0.5) == first for _ in range(10)
            )

    def test_rate_is_respected_in_aggregate(self):
        fingerprints = [f"gpu-point-{i}" for i in range(2000)]
        hits = sum(sample_decision(fp, 0.25) for fp in fingerprints)
        # 2000 draws at p=0.25: a 10-sigma band around the mean.
        assert 300 < hits < 700

    def test_monotone_in_rate(self):
        # A fingerprint sampled at rate r stays sampled at every r' > r.
        for fp in ("a", "b", "c", "d"):
            if sample_decision(fp, 0.1):
                assert sample_decision(fp, 0.5)
                assert sample_decision(fp, 0.9)


class TestMintContext:
    def test_unsampled_is_none(self):
        assert mint_context("fp", "r-1", 0.0) is None

    def test_minted_shape(self):
        ctx = mint_context("fp", "r-1", 1.0)
        assert ctx is not None
        assert len(ctx.trace_id) == 32
        int(ctx.trace_id, 16)  # hex
        assert ctx.parent_id is None
        assert ctx.sampled is True

    def test_request_id_differentiates_retries(self):
        first = mint_context("fp", "r-1", 1.0)
        second = mint_context("fp", "r-2", 1.0)
        assert first.trace_id != second.trace_id

    def test_stable_for_same_request(self):
        assert mint_context("fp", "r-1", 1.0) == mint_context("fp", "r-1", 1.0)


class TestManualSpans:
    """The recorder's open/close pair: explicit parents, no stack."""

    def test_open_close_records_with_explicit_parent(self, telemetry):
        recorder = telemetry.recorder
        span = recorder.open(
            "service.request", category="service",
            parent_id="12-34-5", trace_id=_TRACE_ID,
        )
        closed = recorder.close(span, status="ok")
        [recorded] = telemetry.recorder.snapshot()
        assert recorded is closed
        assert recorded.name == "service.request"
        assert recorded.parent_id == "12-34-5"
        assert recorded.duration is not None and recorded.duration >= 0
        assert recorded.attributes["trace_id"] == _TRACE_ID
        assert recorded.attributes["status"] == "ok"
        assert "_t0" not in recorded.attributes  # bookkeeping stripped

    def test_interleaved_spans_keep_their_parents(self, telemetry):
        # The whole point of manual spans: concurrent open/close pairs
        # on one thread must not adopt each other (the context-manager
        # stack would).
        recorder = telemetry.recorder
        a = recorder.open("a", parent_id="root-a")
        b = recorder.open("b", parent_id="root-b")
        recorder.close(a)
        recorder.close(b)
        by_name = {sp.name: sp for sp in telemetry.recorder.snapshot()}
        assert by_name["a"].parent_id == "root-a"
        assert by_name["b"].parent_id == "root-b"
        assert by_name["a"].span_id != by_name["b"].span_id
