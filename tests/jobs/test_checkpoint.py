"""Checkpoint documents: round trip, cross-checks, in-place rewrites."""

import json
import os
import sys
import threading

import pytest

from repro.errors import SpecError
from repro.jobs.checkpoint import (
    CHECKPOINT_BYTES,
    CHECKPOINT_FORMAT,
    read_checkpoint,
    write_checkpoint,
)
from repro.jobs.store import atomic_write_json

#: Full-width ids and digests, as run_job writes them.
JOB_ID, SPEC_DIGEST, POINTS_DIGEST = "j" + "a" * 16, "b" * 16, "c" * 64


def _older_layout(doc):
    """The bytes older code renamed into place: no checksum, no padding."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        doc = write_checkpoint(
            tmp_path, "j1", "spec-d", "points-d", 5, 12
        )
        assert doc["format"] == CHECKPOINT_FORMAT
        assert read_checkpoint(tmp_path) == doc
        assert read_checkpoint(tmp_path, "j1", "spec-d") == doc

    def test_absent_is_none(self, tmp_path):
        assert read_checkpoint(tmp_path) is None

    def test_carries_no_wall_clock(self, tmp_path):
        a = write_checkpoint(tmp_path / "a", "j1", "s", "p", 5, 12)
        b = write_checkpoint(tmp_path / "b", "j1", "s", "p", 5, 12)
        assert a == b
        assert (tmp_path / "a" / "checkpoint.json").read_bytes() == \
            (tmp_path / "b" / "checkpoint.json").read_bytes()


class TestCrossChecks:
    def test_wrong_job_id_raises(self, tmp_path):
        write_checkpoint(tmp_path, "j1", "spec-d", "points-d", 5, 12)
        with pytest.raises(SpecError, match="belongs to job"):
            read_checkpoint(tmp_path, job_id="j2")

    def test_wrong_spec_digest_raises(self, tmp_path):
        write_checkpoint(tmp_path, "j1", "spec-d", "points-d", 5, 12)
        with pytest.raises(SpecError, match="spec digest"):
            read_checkpoint(tmp_path, "j1", "different")

    def test_foreign_document_raises(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text('{"format": "nope"}')
        with pytest.raises(SpecError, match="not a jobs checkpoint"):
            read_checkpoint(tmp_path)


class TestAtomicWrite:
    def test_writes_deterministic_json(self, tmp_path):
        path = atomic_write_json(tmp_path / "doc.json", {"b": 2, "a": 1})
        assert json.loads(path.read_text()) == {"a": 1, "b": 2}
        # sort_keys: key order is canonical, so bytes are reproducible.
        again = atomic_write_json(tmp_path / "doc2.json", {"a": 1, "b": 2})
        assert path.read_bytes() == again.read_bytes()

    def test_leaves_no_temp_droppings(self, tmp_path):
        atomic_write_json(tmp_path / "doc.json", {"a": 1}, fsync=True)
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestInPlace:
    def test_rewrites_keep_the_file_and_leave_nothing_else(self, tmp_path):
        write_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST, POINTS_DIGEST, 4, 12)
        path = tmp_path / "checkpoint.json"
        inode = os.stat(path).st_ino
        doc = write_checkpoint(
            tmp_path, JOB_ID, SPEC_DIGEST, POINTS_DIGEST, 8, 12
        )
        assert os.stat(path).st_ino == inode
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
        assert path.stat().st_size == CHECKPOINT_BYTES
        assert read_checkpoint(tmp_path) == doc

    def test_older_layout_reads_back(self, tmp_path):
        doc = write_checkpoint(tmp_path / "new", JOB_ID, SPEC_DIGEST,
                               POINTS_DIGEST, 5, 12)
        (tmp_path / "checkpoint.json").write_bytes(_older_layout(doc))
        assert read_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST) == doc

    @pytest.mark.parametrize("extra", [0, 2 * CHECKPOINT_BYTES])
    def test_first_write_replaces_another_length_whole(
        self, tmp_path, extra
    ):
        old = write_checkpoint(tmp_path / "old", JOB_ID, SPEC_DIGEST,
                               POINTS_DIGEST, 5, 12)
        path = tmp_path / "checkpoint.json"
        path.write_bytes(_older_layout(old) + b" " * extra)
        doc = write_checkpoint(
            tmp_path, JOB_ID, SPEC_DIGEST, POINTS_DIGEST, 9, 12
        )
        write_checkpoint(tmp_path / "fresh", JOB_ID, SPEC_DIGEST,
                         POINTS_DIGEST, 9, 12)
        assert path.read_bytes() == \
            (tmp_path / "fresh" / "checkpoint.json").read_bytes()
        assert read_checkpoint(tmp_path) == doc

    def test_widest_document_fits_and_a_wider_one_is_refused(
        self, tmp_path
    ):
        write_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST, POINTS_DIGEST,
                         100_000_000, 100_000_000)
        assert read_checkpoint(tmp_path)["points_done"] == 100_000_000
        with pytest.raises(SpecError, match="bytes"):
            write_checkpoint(tmp_path, JOB_ID + "x", SPEC_DIGEST,
                             POINTS_DIGEST, 100_000_000, 100_000_000)


class TestTornDocuments:
    def test_a_changed_digit_never_yields_its_count(self, tmp_path):
        write_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST, POINTS_DIGEST,
                         1234, 5000)
        path = tmp_path / "checkpoint.json"
        good = path.read_bytes()
        path.write_bytes(good.replace(b'"points_done": 1234',
                                      b'"points_done": 1294'))
        assert read_checkpoint(tmp_path) is None
        assert read_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST) is None

    def test_a_document_cut_short_never_yields_another_count(
        self, tmp_path
    ):
        doc = write_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST, POINTS_DIGEST,
                               1234, 5000)
        path = tmp_path / "checkpoint.json"
        good = path.read_bytes()
        for size in range(len(good)):
            path.write_bytes(good[:size])
            assert read_checkpoint(tmp_path) in (None, doc), size

    def test_concurrent_reads_see_only_written_counts(self, tmp_path):
        # The writer never stops between rewrites, so reads race it.
        counts = range(10_000)
        seen, errors = [], []
        stop = threading.Event()
        write_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST, POINTS_DIGEST, 0,
                         len(counts))

        def writer():
            try:
                for n in counts:
                    write_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST,
                                     POINTS_DIGEST, n, len(counts))
            finally:
                stop.set()

        def reader():
            while not stop.is_set():
                try:
                    doc = read_checkpoint(tmp_path, JOB_ID, SPEC_DIGEST)
                except Exception as exc:  # any raise fails the test
                    errors.append(exc)
                    return
                seen.append(None if doc is None else doc["points_done"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer),
                       threading.Thread(target=reader)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert seen
        assert set(seen) <= set(counts) | {None}
