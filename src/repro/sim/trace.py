"""Execution trace: the library's built-in "profiler".

The paper inspects runtime behaviour with a profiler ("Profiling the
OpenMP program reveals that the grid sizes of the GPU reduction kernels
match the team sizes specified by the num_teams clause...", §III.C).  The
trace records the same observables — kernel launches with their geometry,
page migrations, and coherent remote accesses — so tests and benchmarks can
make the paper's profiling claims executable.

The trace also keeps its own whole-run totals (launches by kernel, bytes
migrated by reason, ...), whatever the telemetry switch says;
:func:`repro.telemetry.publish_counts` publishes them as ``sim.*``
metrics at export time.  Launches are recorded by
:meth:`Trace.record_launches`, a whole slab's at once under one lock;
:meth:`Trace.record_launch` is that call for one launch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from ..util.units import format_bytes

__all__ = [
    "KernelLaunchRecord",
    "MigrationRecord",
    "RemoteAccessRecord",
    "Trace",
]


class KernelLaunchRecord(NamedTuple):
    """One device kernel launch (an immutable, hashable tuple)."""

    time: float
    name: str
    grid: int
    block: int
    elements: int
    from_clause: bool
    duration: float


@dataclass(frozen=True)
class MigrationRecord:
    """A page-migration burst between memories."""

    time: float
    src: str
    dst: str
    nbytes: int
    npages: int
    duration: float
    reason: str  # "fault", "prefetch", "access-counter"


@dataclass(frozen=True)
class RemoteAccessRecord:
    """Coherent remote (non-migrating) access over the C2C link."""

    time: float
    accessor: str  # "cpu" or "gpu"
    nbytes: int
    duration: float


def _add(counts: Dict[str, int], key: str, amount: int) -> None:
    counts[key] = counts.get(key, 0) + amount


#: Default per-list retention window.  Far above anything one paper
#: experiment records, far below what a million-point streamed job
#: would otherwise accumulate in the coordinator.
DEFAULT_RETENTION = 8192


class Trace:
    """Append-only event log with typed accessors.

    Retention is bounded: each list keeps at least the newest
    ``retention`` records (eviction drops the oldest in blocks, so up to
    ``2 * retention`` may be resident).  The machine-scoped trace would
    otherwise grow without bound under :mod:`repro.jobs` streamed sweeps
    — the coordinator's RSS must stay independent of point count.
    ``n_launches`` and the totals below count every record ever made;
    the windowed queries (``grid_sizes``, ``migrated_bytes``,
    ``to_events``) see the retained tail, which covers any single
    experiment.
    """

    def __init__(self, retention: int = DEFAULT_RETENTION) -> None:
        self.retention = max(1, int(retention))
        self.kernel_launches: List[KernelLaunchRecord] = []
        self.migrations: List[MigrationRecord] = []
        self.remote_accesses: List[RemoteAccessRecord] = []
        # Service dispatch and job threads may record into one machine's
        # trace at once; the totals are read-modify-write.
        self._lock = threading.Lock()
        self._reset_totals()

    def _reset_totals(self) -> None:
        self.launches_by_kernel: Dict[str, int] = {}
        self.kernel_seconds = 0.0
        self.migrated_bytes_by_reason: Dict[str, int] = {}
        self.migrations_by_reason: Dict[str, int] = {}
        self.remote_bytes_by_accessor: Dict[str, int] = {}

    def _evict(self, records: List[Any]) -> None:
        """Drop the oldest half once a list doubles past the window."""
        if len(records) >= 2 * self.retention:
            del records[: len(records) - self.retention]

    # -- recording ----------------------------------------------------------
    def record_launch(self, record: KernelLaunchRecord) -> None:
        self.record_launches((record,))

    def record_launches(self, records: Sequence[KernelLaunchRecord]) -> None:
        """Record *records* in order: the retained tail is what appending
        them one at a time, evicting after each, would leave, and
        ``kernel_seconds`` adds their durations in launch order.
        """
        if not records:
            return
        retention = self.retention
        with self._lock:
            launches = self.kernel_launches
            before = len(launches)
            launches.extend(records)
            total = len(launches)
            if total >= 2 * retention:
                # The first append that reaches 2R cuts the list to R;
                # each R appends after that cut it back to R again.
                after = len(records) - max(1, 2 * retention - before)
                del launches[: total - (retention + after % retention)]
            counts = self.launches_by_kernel
            seconds = self.kernel_seconds
            for record in records:
                counts[record.name] = counts.get(record.name, 0) + 1
                seconds += record.duration  # in launch order, like N adds
            self.kernel_seconds = seconds

    def record_migration(self, record: MigrationRecord) -> None:
        self.migrations.append(record)
        self._evict(self.migrations)
        with self._lock:
            _add(self.migrated_bytes_by_reason, record.reason, record.nbytes)
            _add(self.migrations_by_reason, record.reason, 1)

    def record_remote_access(self, record: RemoteAccessRecord) -> None:
        self.remote_accesses.append(record)
        self._evict(self.remote_accesses)
        with self._lock:
            _add(self.remote_bytes_by_accessor, record.accessor,
                 record.nbytes)

    # -- queries --------------------------------------------------------------
    @property
    def n_launches(self) -> int:
        """Every launch ever recorded (including evicted ones)."""
        return sum(self.launches_by_kernel.values())

    def last_launch(self) -> Optional[KernelLaunchRecord]:
        return self.kernel_launches[-1] if self.kernel_launches else None

    def grid_sizes(self) -> List[int]:
        """Grid size per launch, in launch order (the paper's observable)."""
        return [r.grid for r in self.kernel_launches]

    def migrated_bytes(self, src: Optional[str] = None, dst: Optional[str] = None) -> int:
        """Total bytes migrated, optionally filtered by endpoint names."""
        total = 0
        for r in self.migrations:
            if src is not None and r.src != src:
                continue
            if dst is not None and r.dst != dst:
                continue
            total += r.nbytes
        return total

    def clear(self) -> None:
        self.kernel_launches.clear()
        self.migrations.clear()
        self.remote_accesses.clear()
        self._reset_totals()

    def summary(self) -> str:
        """One-line counts summary (sizes human-readable via util.units)."""
        return (
            f"{len(self.kernel_launches)} launches, "
            f"{len(self.migrations)} migrations "
            f"({format_bytes(self.migrated_bytes())}), "
            f"{len(self.remote_accesses)} remote accesses"
        )

    def to_events(self) -> List[Dict[str, Any]]:
        """Chrome-trace ``trace_event`` dicts for the simulated lanes.

        This is the schema the telemetry exporter consumes
        (:func:`repro.telemetry.chrome_trace` merges these with the
        wall-clock span events): complete ("X") events under the sim
        process (pid 0), one lane per modeled resource —

        * tid 1: GPU SM groups (kernel launches, grid/block in ``args``),
        * tid 2: the C2C link (page-migration bursts, by reason),
        * tid 3: CPU coherent remote reads.

        Timestamps are *simulated* seconds (exported as microseconds).
        Records that share a recorded sim time — every measurement runs
        its own engine from t = 0 — are packed end-to-end within their
        lane so the timeline stays readable; each event's raw recorded
        time is preserved in ``args["sim_time"]``.
        """
        events: List[Dict[str, Any]] = []
        lanes = [
            ("gpu-sm-groups", 1, "sim.gpu", self.kernel_launches),
            ("c2c-link", 2, "sim.mem", self.migrations),
            ("cpu-remote-reads", 3, "sim.cpu", self.remote_accesses),
        ]
        for lane_name, tid, category, records in lanes:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": lane_name},
                }
            )
            cursor = 0.0
            for record in records:
                start = max(cursor, record.time)
                if isinstance(record, KernelLaunchRecord):
                    name = record.name
                    args: Dict[str, Any] = {
                        "grid": record.grid,
                        "block": record.block,
                        "elements": record.elements,
                        "from_clause": record.from_clause,
                    }
                elif isinstance(record, MigrationRecord):
                    name = f"migrate {record.src}->{record.dst} ({record.reason})"
                    args = {
                        "nbytes": record.nbytes,
                        "npages": record.npages,
                        "reason": record.reason,
                    }
                else:
                    name = f"remote read ({record.accessor})"
                    args = {"nbytes": record.nbytes,
                            "accessor": record.accessor}
                args["sim_time"] = record.time
                events.append(
                    {
                        "name": name,
                        "cat": category,
                        "ph": "X",
                        "ts": start * 1e6,
                        "dur": record.duration * 1e6,
                        "pid": 0,
                        "tid": tid,
                        "args": args,
                    }
                )
                cursor = start + record.duration
        return events
