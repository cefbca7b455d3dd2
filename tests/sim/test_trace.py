"""Tests for the execution trace (the built-in profiler)."""

import struct
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.trace import (
    KernelLaunchRecord,
    MigrationRecord,
    RemoteAccessRecord,
    Trace,
)


def _launch(grid=128, name="k", duration=1e-3):
    return KernelLaunchRecord(
        time=0.0, name=name, grid=grid, block=256, elements=1 << 20,
        from_clause=True, duration=duration,
    )


class TestTrace:
    def test_records_launches_in_order(self):
        trace = Trace()
        trace.record_launch(_launch(grid=128))
        trace.record_launch(_launch(grid=256))
        assert trace.n_launches == 2
        assert trace.grid_sizes() == [128, 256]
        assert trace.last_launch().grid == 256

    def test_last_launch_empty(self):
        assert Trace().last_launch() is None

    def test_migrated_bytes_filtering(self):
        trace = Trace()
        trace.record_migration(MigrationRecord(0.0, "LPDDR5X", "HBM3",
                                               1000, 1, 0.1, "fault"))
        trace.record_migration(MigrationRecord(0.0, "HBM3", "LPDDR5X",
                                               500, 1, 0.1, "access-counter"))
        assert trace.migrated_bytes() == 1500
        assert trace.migrated_bytes(src="LPDDR5X") == 1000
        assert trace.migrated_bytes(dst="LPDDR5X") == 500
        assert trace.migrated_bytes(src="HBM3", dst="HBM3") == 0

    def test_remote_access_records(self):
        trace = Trace()
        trace.record_remote_access(RemoteAccessRecord(0.0, "cpu", 4096, 1e-6))
        assert len(trace.remote_accesses) == 1

    def test_clear(self):
        trace = Trace()
        trace.record_launch(_launch())
        trace.clear()
        assert trace.n_launches == 0

    def test_summary_counts(self):
        trace = Trace()
        trace.record_launch(_launch())
        text = trace.summary()
        assert "1 launches" in text


class TestTotals:
    def test_totals_count_evicted_records(self):
        trace = Trace(retention=2)
        for i in range(10):
            trace.record_launch(_launch(name=f"k{i % 2}", duration=0.5))
            trace.record_migration(
                MigrationRecord(0.0, "LPDDR5X", "HBM3", 100, 1, 0.1, "fault")
            )
            trace.record_remote_access(
                RemoteAccessRecord(0.0, "cpu", 64, 1e-6)
            )
        assert len(trace.kernel_launches) < 10
        assert trace.launches_by_kernel == {"k0": 5, "k1": 5}
        assert trace.n_launches == 10
        assert trace.kernel_seconds == 5.0
        assert trace.migrated_bytes_by_reason == {"fault": 1000}
        assert trace.migrations_by_reason == {"fault": 10}
        assert trace.remote_bytes_by_accessor == {"cpu": 640}
        trace.clear()
        assert trace.n_launches == 0 and trace.kernel_seconds == 0.0

    def test_concurrent_recording_loses_no_count(self):
        threads, per_thread = 8, 2000
        trace = Trace()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda n=n: [
                        trace.record_launch(_launch(name=f"k{n % 3}"))
                        for _ in range(per_thread)
                    ]
                )
                for n in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert trace.n_launches == threads * per_thread


class TestRecordLaunches:
    @given(retention=st.integers(1, 16), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_one_by_one(self, retention, data):
        names = st.sampled_from(["k0", "k1", "k2"])
        durations = st.sampled_from([0.1, 1e-17, 3.3e16, 0.7, 2.5e-9])
        launches = st.lists(
            st.builds(_launch, name=names, duration=durations),
            max_size=5 * retention,
        )
        before, batch = data.draw(launches), data.draw(launches)
        trace = Trace(retention)
        for record in before:
            trace.record_launch(record)
        trace.record_launches(batch)
        # One at a time: append, drop the oldest half whenever the list
        # reaches twice the retention, count, and add the duration.
        kept, counts, seconds = [], {}, 0.0
        for record in before + batch:
            kept.append(record)
            if len(kept) >= 2 * retention:
                del kept[: len(kept) - retention]
            counts[record.name] = counts.get(record.name, 0) + 1
            seconds += record.duration
        assert trace.kernel_launches == kept
        assert list(trace.launches_by_kernel.items()) == list(counts.items())
        assert trace.n_launches == len(before) + len(batch)
        assert struct.pack("<d", trace.kernel_seconds) == \
            struct.pack("<d", seconds)

    def test_launch_record_is_immutable_and_hashable(self):
        record = _launch()
        with pytest.raises(AttributeError):
            record.grid = 256
        assert hash(record) == hash(_launch()) and record == _launch()
