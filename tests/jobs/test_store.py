"""Result store: sequential appends, rotation, recovery, manifests."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SpecError
from repro.jobs import store as store_module
from repro.jobs.store import ResultStore, _encode_line, read_json
from repro.sweep.fingerprint import canonical_json


def _digests(n):
    return [f"{i:016x}" for i in range(n)]


def _job_record(bandwidth=123.456, elapsed=1.234e-3, value=-135550):
    return {"bandwidth_gbs": bandwidth, "elapsed_seconds": elapsed,
            "value": value}


def _reference_line(index, digest, record):
    # The whole {"d", "i", "r"} document canonicalized.
    return (canonical_json({"d": digest, "i": index, "r": record})
            + "\n").encode("utf-8")


def _fill(store, n, record=None):
    record = record or {"bandwidth_gbs": 1.5}
    for i, digest in enumerate(_digests(n)):
        store.append(i, digest, record)
    store.flush()


class TestAppend:
    def test_rotates_by_record_count(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=3)
        _fill(store, 8)
        assert store.records == 8
        assert store.shard_names() == [
            "shard-00000.jsonl", "shard-00001.jsonl", "shard-00002.jsonl",
        ]
        lines = (tmp_path / "shards" / "shard-00000.jsonl").read_bytes()
        assert lines.count(b"\n") == 3
        tail = (tmp_path / "shards" / "shard-00002.jsonl").read_bytes()
        assert tail.count(b"\n") == 2

    def test_rejects_out_of_order_appends(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=4)
        store.append(0, "d0", {})
        with pytest.raises(SpecError, match="out-of-order"):
            store.append(2, "d2", {})

    def test_rejects_invalid_shard_records(self, tmp_path):
        with pytest.raises(SpecError, match="shard_records"):
            ResultStore(tmp_path, shard_records=0)

    def test_lines_are_canonical_json(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=4)
        store.append(0, "abcd", {"value": 2.0, "bandwidth_gbs": 1.0})
        store.flush()
        (raw,) = (tmp_path / "shards" / "shard-00000.jsonl").read_bytes(
        ).splitlines()
        doc = json.loads(raw)
        assert doc["d"] == "abcd" and doc["i"] == 0
        # canonical_json renders floats as repr strings, so the same
        # record always encodes to the same bytes on every platform.
        assert doc["r"] == {"bandwidth_gbs": "1.0", "value": "2.0"}

    @pytest.mark.parametrize("record", [
        {"value": float("nan"), "hi": float("inf"), "lo": float("-inf"),
         "zero": -0.0},
        {"big": 2 ** 70, "neg": -(2 ** 63) - 1, "small": -7, "flag": True,
         "none": None, "list": [1, -2.5, "x"], "text": 'q"\\\u00e9'},
        {},
        # The record a gpu_point job writes, and its near misses.
        _job_record(value=-135550),
        _job_record(value=0.1),
        _job_record(bandwidth=float("nan"), elapsed=float("inf")),
        _job_record(bandwidth=float("-inf"), elapsed=-0.0),
        _job_record(bandwidth=5e-324, elapsed=1e308),
        _job_record(value=2 ** 70),
        _job_record(value=True),
        _job_record(elapsed=np.float64(1.234e-3)),
        _job_record(bandwidth="123.456", elapsed="nan", value="2.0"),
    ])
    @pytest.mark.parametrize("index", [0, 9, 2 ** 40])
    def test_envelope_bytes_equal_canonical_json(self, record, index):
        for digest in ("0123456789abcdef", 'odd"digest', "d\u00e9"):
            assert _encode_line(index, digest, record) == \
                _reference_line(index, digest, record)

    @given(
        index=st.integers(min_value=0),
        digest=st.one_of(
            st.text(alphabet="0123456789abcdef", min_size=1), st.text()
        ),
        bandwidth=st.floats(allow_nan=True, allow_infinity=True),
        elapsed=st.floats(allow_nan=True, allow_infinity=True),
        value=st.one_of(
            st.integers(), st.floats(allow_nan=True, allow_infinity=True)
        ),
    )
    def test_job_record_bytes_equal_canonical_json(
        self, index, digest, bandwidth, elapsed, value
    ):
        record = _job_record(bandwidth, elapsed, value)
        assert _encode_line(index, digest, record) == \
            _reference_line(index, digest, record)

    def test_job_records_skip_the_canonical_walk(
        self, tmp_path, monkeypatch
    ):
        records = [_job_record(value=-135550), _job_record(value=2.5)]
        expected = b"".join(
            _reference_line(i, "0123456789abcdef", record)
            for i, record in enumerate(records)
        )

        def walk(obj):
            raise AssertionError("a job record took the canonical_json walk")

        monkeypatch.setattr(store_module, "canonical_json", walk)
        store = ResultStore(tmp_path, shard_records=4)
        for i, record in enumerate(records):
            store.append(i, "0123456789abcdef", record)
        store.close()
        assert (tmp_path / "shards" / "shard-00000.jsonl").read_bytes() == \
            expected

    def test_iter_records_preserves_order(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=2)
        _fill(store, 5)
        assert [doc["i"] for doc in store.iter_records()] == list(range(5))


class TestTail:
    def test_pages_from_offset(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=3)
        _fill(store, 8)
        data, count = store.tail(6)
        assert count == 2
        assert [json.loads(raw)["i"] for raw in data.splitlines()] == [6, 7]

    def test_respects_max_records(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=3)
        _fill(store, 8)
        data, count = store.tail(1, max_records=3)
        assert count == 3
        assert [json.loads(raw)["i"] for raw in data.splitlines()] == [
            1, 2, 3,
        ]

    def test_past_the_end_is_empty(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=3)
        _fill(store, 2)
        assert store.tail(2) == (b"", 0)

    def test_negative_offset_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(SpecError, match="offset"):
            store.tail(-1)


class TestRecover:
    def test_full_valid_prefix_survives(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=3)
        _fill(store, 7)
        store.close()
        fresh = ResultStore(tmp_path, shard_records=3)
        assert fresh.recover(_digests(7)) == 7

    def test_torn_tail_is_truncated(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=3)
        _fill(store, 5)
        store.close()
        path = tmp_path / "shards" / "shard-00001.jsonl"
        path.write_bytes(path.read_bytes() + b'{"d": "torn')
        fresh = ResultStore(tmp_path, shard_records=3)
        assert fresh.recover(_digests(5)) == 5
        # The torn bytes are gone; the next append continues at 5.
        assert path.read_bytes().endswith(b"}\n")
        fresh.append(5, _digests(6)[5], {"bandwidth_gbs": 1.5})

    def test_digest_mismatch_truncates_and_drops_later_shards(
        self, tmp_path
    ):
        store = ResultStore(tmp_path, shard_records=2)
        _fill(store, 6)
        store.close()
        digests = _digests(6)
        digests[3] = "not-the-expected-digest"
        fresh = ResultStore(tmp_path, shard_records=2)
        assert fresh.recover(digests) == 3
        assert not (tmp_path / "shards" / "shard-00002.jsonl").exists()

    def test_empty_directory_recovers_to_zero(self, tmp_path):
        assert ResultStore(tmp_path).recover(iter([])) == 0


class TestManifest:
    def test_complete_manifest_digests_every_shard(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=3)
        _fill(store, 7)
        doc = store.write_manifest({"job_id": "j1"}, complete=True)
        assert doc["complete"] is True
        assert doc["points_done"] == 7
        assert len(doc["shards"]) == 3
        assert all(len(s["sha256"]) == 64 for s in doc["shards"])
        assert doc["shards"][0]["records"] == 3
        assert doc["shards"][2]["records"] == 1
        assert len(doc["results_sha256"]) == 64
        assert read_json(tmp_path / "manifest.json") == doc

    def test_identical_runs_write_identical_manifests(self, tmp_path):
        blobs = []
        for run in ("a", "b"):
            store = ResultStore(tmp_path / run, shard_records=3)
            _fill(store, 7)
            store.write_manifest({"job_id": "j1"}, complete=True)
            blobs.append((tmp_path / run / "manifest.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_working_manifest_has_no_digests(self, tmp_path):
        store = ResultStore(tmp_path, shard_records=3)
        _fill(store, 4)
        doc = store.write_manifest({"job_id": "j1"}, complete=False)
        assert doc["complete"] is False
        assert "results_sha256" not in doc
        assert all("sha256" not in s for s in doc["shards"])
