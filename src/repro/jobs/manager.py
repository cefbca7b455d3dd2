"""Job lifecycle: the durable sweep runner and the async manager.

:func:`run_job` is the synchronous core — one call takes a job
directory from whatever state a previous process left it in to the
furthest state this process can reach::

    PENDING -> RUNNING -> CHECKPOINTED -> ... -> DONE
                  |            |
                  v            v
               FAILED      CANCELLED

``CHECKPOINTED`` is the durable between-intervals state: it is what a
killed job's directory reads on restart, and what resume starts from.
Every checkpoint first flushes the result store, then rewrites
``checkpoint.json`` in place (one ``pwrite`` under a checksum) and, when
the shard list changes, atomically the working manifest, so the on-disk
invariant (durable shards >= checkpoint claim) holds at every instant.
Resume never trusts its own bookkeeping: the store re-validates each
durable line against the spec's canonical per-point digest sequence
(:func:`repro.verify.fuzzer.case_digest`) and continues from exactly
the first missing point — which is what makes an interrupted-and-resumed
run byte-identical to an uninterrupted one (the
:mod:`repro.verify.differential` resume oracle).

A point that *fails* (timeout, quarantined worker) is never appended —
failure records are not deterministic, and one in the stream would
poison byte-identity forever.  The job fails at that index instead;
resuming retries from it.

:class:`JobManager` wraps :func:`run_job` with a background-thread
runner, a bounded running-set with FIFO admission, cancel events, and
the observability wiring: a ``jobs.state`` gauge per lifecycle state,
``job.checkpoint`` telemetry spans, and a flight-recorder dump when a
job fails.

The ``job.point`` fault-injection point fires once per completed point
(modes: ``crash`` — ``os._exit``, the SIGKILL shape that loses the
buffered tail; ``fail`` — a raised error driving the FAILED path;
``slow``), which is how the kill-mid-job chaos scenario and the
hypothesis resume property interrupt at an exact point index.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..errors import SpecError
from ..faults.injector import fire
from ..obs.flight import flight
from ..sweep.executor import SweepExecutor
from ..sweep.fingerprint import fingerprint, machine_fingerprint_data
from ..telemetry.state import metrics, span as tele_span
from .api import JobSpec, parse_job_spec
from .checkpoint import read_checkpoint, write_checkpoint
from .store import ResultStore, atomic_write_json, read_json

__all__ = [
    "JOB_STATES",
    "JobCancelled",
    "JobManager",
    "run_job",
]

#: Lifecycle states, in rough order of appearance.
JOB_STATES = (
    "PENDING",
    "RUNNING",
    "CHECKPOINTED",
    "DONE",
    "FAILED",
    "CANCELLED",
)

#: States a job directory can be (re)started from.
RESUMABLE_STATES = ("PENDING", "RUNNING", "CHECKPOINTED", "CANCELLED",
                    "FAILED")

STATE_FORMAT = "repro-jobs-state"
SPEC_FORMAT = "repro-jobs-spec"


class JobCancelled(Exception):
    """Internal control flow: the cancel event fired between chunks."""


class _JobPaused(Exception):
    """Internal control flow: ``max_points`` reached (tests/oracle)."""


class _PointFailed(Exception):
    """A point resolved to a failure record; the job must not absorb it."""


def state_path(directory: "Path | str") -> Path:
    return Path(directory) / "state.json"


def read_state(directory: "Path | str") -> Optional[Dict[str, Any]]:
    doc = read_json(state_path(directory))
    if isinstance(doc, dict) and doc.get("format") == STATE_FORMAT:
        return doc
    return None


def _write_state(
    directory: Path,
    job_id: str,
    state: str,
    done: int,
    total: int,
    error: Optional[str] = None,
) -> Dict[str, Any]:
    doc = {
        "format": STATE_FORMAT,
        "version": 1,
        "job_id": job_id,
        "state": state,
        "points_done": int(done),
        "points_total": int(total),
        "error": error,
        "pid": os.getpid(),
        "updated_at": time.time(),
    }
    atomic_write_json(state_path(directory), doc)
    return doc


def load_job_spec(directory: "Path | str") -> JobSpec:
    """The spec a job directory was created from (``spec.json``)."""
    doc = read_json(Path(directory) / "spec.json")
    if not isinstance(doc, dict) or doc.get("format") != SPEC_FORMAT:
        raise SpecError(f"{directory} does not contain a job spec")
    return parse_job_spec(doc.get("spec"))


def run_job(
    directory: "Path | str",
    spec: JobSpec,
    executor: SweepExecutor,
    max_points: Optional[int] = None,
    cancel_event: Optional[threading.Event] = None,
    progress: Optional[Callable[[int, str], None]] = None,
    fsync: bool = False,
) -> Dict[str, Any]:
    """Run (or resume) the job in *directory* to completion; returns the
    final state document.

    ``max_points`` stops cleanly (state ``CHECKPOINTED``) once at least
    that many *new* points resolved — the deterministic interruption the
    resume oracle uses.  ``cancel_event`` is polled at each checkpoint.
    ``progress(done, state)`` fires on every transition and checkpoint.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fp = executor.machine_fingerprint
    job_id = spec.job_id(fp)

    def notify(done: int, state: str) -> None:
        if progress is not None:
            progress(done, state)

    # -- provenance: one directory belongs to one (spec, machine) pair.
    spec_file = directory / "spec.json"
    existing = read_json(spec_file)
    if existing is None:
        atomic_write_json(
            spec_file,
            {
                "format": SPEC_FORMAT,
                "version": 1,
                "job_id": job_id,
                "machine": fp,
                "spec": spec.to_dict(),
            },
            fsync=fsync,
        )
    elif (
        not isinstance(existing, dict)
        or existing.get("spec") != spec.to_dict()
        or existing.get("machine") != fp
    ):
        raise SpecError(
            f"{directory} belongs to a different job "
            f"(spec or machine fingerprint mismatch); refusing to mix "
            "result streams"
        )

    previous = read_state(directory)
    if previous is not None and previous.get("state") == "DONE":
        return previous  # idempotent: completed jobs never recompute

    total = spec.total_points()
    points_digest = spec.points_digest(fp)
    checkpoint = read_checkpoint(directory, job_id, spec.spec_digest)
    store = ResultStore(directory, shard_records=spec.shard_records)
    done = store.recover(spec.point_digests(fp))
    if checkpoint is not None and done < int(checkpoint["points_done"]):
        raise SpecError(
            f"durable results ({done} points) are behind the checkpoint "
            f"({checkpoint['points_done']}): the store lost acknowledged "
            "writes; refusing to resume"
        )
    manifest_base = {
        "job_id": job_id,
        "spec": spec.to_dict(),
        "spec_digest": spec.spec_digest,
        "machine": fp,
        "points_total": total,
        "points_digest": points_digest,
    }

    manifest_shards = -1
    state_synced = False

    def checkpoint_now(n: int, state: str = "CHECKPOINTED") -> None:
        nonlocal manifest_shards, state_synced
        with tele_span("job.checkpoint", category="jobs", points=n):
            store.flush(fsync=fsync)
            write_checkpoint(
                directory, job_id, spec.spec_digest, points_digest,
                n, total, fsync=fsync,
            )
            # The checkpoint document is the durable progress claim,
            # and it alone is rewritten every interval.  The working
            # manifest only documents shard layout, so it is rewritten
            # when the shard list changes; the state document only
            # records lifecycle transitions (readers recover progress
            # from the checkpoint), so it is rewritten on the first
            # checkpoint and on non-CHECKPOINTED states.  Keeping the
            # steady-state interval to one in-place checkpoint rewrite,
            # which creates no file, is what holds the durability tax
            # under the perf gate's budget.
            shards = len(store.shard_names())
            if shards != manifest_shards or state != "CHECKPOINTED":
                store.write_manifest(
                    manifest_base, complete=False, fsync=fsync
                )
                manifest_shards = shards
            if not state_synced or state != "CHECKPOINTED":
                _write_state(directory, job_id, state, n, total)
                state_synced = True
        metrics().counter("jobs.checkpoints").add(1)
        notify(n, state)

    state = _write_state(directory, job_id, "RUNNING", done, total)
    notify(done, "RUNNING")
    digests = spec.point_digests(fp, start=done)

    def sink(index: int, record: dict) -> None:
        decision = fire("job.point")
        if decision is not None:
            if decision.mode == "crash":
                # The SIGKILL shape: no flush, no atexit — the store's
                # buffered tail is lost, exactly like a real kill.
                os._exit(3)
            elif decision.mode == "fail":
                raise _PointFailed("injected job.point failure")
            elif decision.mode == "slow":
                time.sleep(
                    decision.delay_s if decision.delay_s is not None
                    else 0.01
                )
        if isinstance(record, dict) and record.get("failed"):
            raise _PointFailed(
                f"point {index} failed: {record.get('error', 'unknown')}"
            )
        store.append(index, next(digests), record)

    def on_chunk(new_points: int) -> None:
        n = done + new_points
        checkpoint_now(n)
        if cancel_event is not None and cancel_event.is_set():
            raise JobCancelled()
        if max_points is not None and new_points >= max_points:
            raise _JobPaused()

    try:
        if done < total:
            executor.run_streaming(
                "gpu_point",
                spec.payloads(start=done),
                stage=f"job:{job_id[:9]}",
                sink=sink,
                chunk_size=spec.checkpoint_interval,
                checkpoint=on_chunk,
                start_index=done,
            )
            done = store.records
    except JobCancelled:
        state = _write_state(directory, job_id, "CANCELLED",
                             store.records, total)
        notify(store.records, "CANCELLED")
        store.close()
        return state
    except _JobPaused:
        # The state document may lag the checkpoint (it only records
        # transitions); refresh it so a paused directory reports its
        # true durable progress.
        state = _write_state(directory, job_id, "CHECKPOINTED",
                             store.records, total)
        store.close()
        return state
    except BaseException as exc:
        done = store.records
        try:
            checkpoint_now(done, state="FAILED")
        except Exception:
            _write_state(directory, job_id, "FAILED", done, total,
                         error=str(exc))
        state = _write_state(directory, job_id, "FAILED", done, total,
                             error=str(exc))
        notify(done, "FAILED")
        metrics().counter("jobs.failed").add(1)
        recorder = flight()
        recorder.record(
            "job", "failed", job_id=job_id, points_done=done,
            error=str(exc),
        )
        recorder.dump("job-failure", job_id=job_id, error=str(exc))
        store.close()
        raise

    # -- completion: seal the manifest (with per-shard digests) and the
    # final checkpoint, then archive when asked.
    with tele_span("job.finalize", category="jobs", points=done):
        store.flush(fsync=True)
        write_checkpoint(
            directory, job_id, spec.spec_digest, points_digest,
            done, total, fsync=True,
        )
        manifest = store.write_manifest(
            manifest_base, complete=True, fsync=True
        )
    store.close()
    state = _write_state(directory, job_id, "DONE", done, total)
    notify(done, "DONE")
    metrics().counter("jobs.completed").add(1)
    if spec.archive:
        from .archive import archive_job

        archive_job(directory)
    del manifest
    return state


class _ManagedJob:
    """One job the manager knows about (live or loaded from disk)."""

    def __init__(self, job_id: str, directory: Path, spec: JobSpec):
        self.job_id = job_id
        self.directory = directory
        self.spec = spec
        self.state = "PENDING"
        self.done = 0
        self.total = spec.total_points()
        self.error: Optional[str] = None
        self.cancel_event = threading.Event()
        self.thread: Optional[threading.Thread] = None

    @property
    def live(self) -> bool:
        return self.thread is not None and self.thread.is_alive()

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.job_id,
            "state": self.state,
            "points_done": self.done,
            "points_total": self.total,
            "error": self.error,
            "case": self.spec.case,
            "label": self.spec.label,
            "spec_digest": self.spec.spec_digest,
        }


class JobManager:
    """Submit / poll / cancel / stream / resume over a jobs directory.

    Jobs run on daemon background threads, at most ``max_running`` at a
    time (FIFO admission for the rest — state ``PENDING``).  Each
    running job gets its own :class:`~repro.sweep.executor.
    SweepExecutor` sharing the manager's machine and result cache, so a
    warm cache accelerates resubmitted or overlapping grids.
    """

    def __init__(
        self,
        root: "Path | str",
        machine: Any,
        cache: Any = None,
        workers: "int | str | None" = None,
        max_running: int = 1,
        fsync: bool = False,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.machine = machine
        self.cache = cache
        self.workers = workers
        self.max_running = max(1, int(max_running))
        self.fsync = fsync
        self.machine_fingerprint = fingerprint(
            machine_fingerprint_data(machine)
        )
        self._jobs: Dict[str, _ManagedJob] = {}
        self._queue: List[str] = []
        self._lock = threading.Lock()

    # -- lookup ---------------------------------------------------------------
    def directory_for(self, job_id: str) -> Path:
        return self.root / job_id

    def _load(self, job_id: str) -> Optional[_ManagedJob]:
        """A handle for *job_id*, recovering disk state for dead jobs."""
        job = self._jobs.get(job_id)
        if job is not None:
            return job
        directory = self.directory_for(job_id)
        if not (directory / "spec.json").is_file():
            return None
        spec = load_job_spec(directory)
        job = _ManagedJob(job_id, directory, spec)
        doc = read_state(directory)
        if doc is not None:
            job.state = doc.get("state", "PENDING")
            job.done = int(doc.get("points_done", 0))
            job.error = doc.get("error")
            if job.state == "RUNNING":
                # The process that owned this job died without a
                # terminal transition; its durable truth is whatever the
                # last checkpoint pinned.
                job.state = "CHECKPOINTED"
                if doc.get("pid") != os.getpid():
                    # Persist the conversion (a dead owner can never do
                    # it): a stale RUNNING on disk would otherwise make
                    # every other reader — `repro job resume` included —
                    # see a phantom live job until a manual cancel.
                    _write_state(directory, job_id, "CHECKPOINTED",
                                 job.done, job.total, error=job.error)
            if job.state != "DONE":
                # The state document only records transitions; the
                # checkpoint is the per-interval progress claim.
                ckpt = read_checkpoint(directory)
                if ckpt is not None:
                    job.done = max(job.done, int(ckpt["points_done"]))
        self._jobs[job_id] = job
        return job

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._load(job_id)
            return None if job is None else job.status()

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            known = {p.name for p in self.root.iterdir() if p.is_dir()}
            known.update(self._jobs)
            docs = []
            for job_id in sorted(known):
                job = self._load(job_id)
                if job is not None:
                    docs.append(job.status())
            return docs

    # -- lifecycle ------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Submit (idempotently) and start when a slot is free."""
        job_id = spec.job_id(self.machine_fingerprint)
        with self._lock:
            job = self._load(job_id)
            if job is None:
                job = _ManagedJob(job_id, self.directory_for(job_id), spec)
                self._jobs[job_id] = job
                job.directory.mkdir(parents=True, exist_ok=True)
                if not (job.directory / "spec.json").is_file():
                    atomic_write_json(
                        job.directory / "spec.json",
                        {
                            "format": SPEC_FORMAT,
                            "version": 1,
                            "job_id": job_id,
                            "machine": self.machine_fingerprint,
                            "spec": spec.to_dict(),
                        },
                        fsync=self.fsync,
                    )
                _write_state(job.directory, job_id, "PENDING", 0, job.total)
            if job.live or job.state == "DONE":
                return job.status()
            self._enqueue(job)
            self._start_ready()
            self._refresh_gauges()
            return job.status()

    def resume(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Requeue an interrupted/cancelled/failed job; ``None`` if unknown."""
        with self._lock:
            job = self._load(job_id)
            if job is None:
                return None
            if job.live or job.state == "DONE":
                return job.status()
            job.error = None
            job.cancel_event = threading.Event()
            self._enqueue(job)
            self._start_ready()
            self._refresh_gauges()
            return job.status()

    def cancel(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Request cancellation; ``None`` if unknown.

        A queued job cancels immediately; a running one stops at its
        next checkpoint (its durable prefix stays resumable).
        """
        with self._lock:
            job = self._load(job_id)
            if job is None:
                return None
            if job.live:
                job.cancel_event.set()
            elif job.state in ("PENDING", "CHECKPOINTED"):
                if job.job_id in self._queue:
                    self._queue.remove(job.job_id)
                job.state = "CANCELLED"
                _write_state(job.directory, job.job_id, "CANCELLED",
                             job.done, job.total)
            self._refresh_gauges()
            return job.status()

    def stream(
        self, job_id: str, offset: int, max_records: int = 4096
    ) -> Optional[bytes]:
        """Durable JSONL tail from record *offset*; ``None`` if unknown."""
        with self._lock:
            job = self._load(job_id)
        if job is None:
            return None
        reader = ResultStore(
            job.directory, shard_records=job.spec.shard_records
        )
        reader.records = job.done if not job.live else self._disk_done(job)
        data, _count = reader.tail(offset, max_records)
        return data

    def _disk_done(self, job: _ManagedJob) -> int:
        # The checkpoint is the per-interval durable claim (the state
        # document only records lifecycle transitions).
        doc = read_checkpoint(job.directory)
        return int(doc["points_done"]) if doc else 0

    def wait(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Block until the job's thread exits (tests/CLI watch)."""
        with self._lock:
            job = self._jobs.get(job_id)
            thread = job.thread if job is not None else None
        if thread is not None:
            thread.join(timeout_s)
        return self.get(job_id)

    # -- internals ------------------------------------------------------------
    def _enqueue(self, job: _ManagedJob) -> None:
        if job.job_id not in self._queue:
            self._queue.append(job.job_id)
            job.state = "PENDING" if job.done == 0 else "CHECKPOINTED"

    def _start_ready(self) -> None:
        running = sum(1 for j in self._jobs.values() if j.live)
        while self._queue and running < self.max_running:
            job = self._jobs[self._queue.pop(0)]
            job.thread = threading.Thread(
                target=self._run, args=(job,),
                name=f"repro-job-{job.job_id[:9]}", daemon=True,
            )
            job.thread.start()
            running += 1

    def _make_executor(self, job: _ManagedJob) -> Any:
        """The executor one job run uses (factory so subclasses — the
        cluster job manager — can substitute a distributed one)."""
        return SweepExecutor(
            self.machine, workers=self.workers, cache=self.cache
        )

    def _run(self, job: _ManagedJob) -> None:
        executor = self._make_executor(job)

        def progress(done: int, state: str) -> None:
            job.done = done
            job.state = state
            self._refresh_gauges()

        try:
            job.state = "RUNNING"
            self._refresh_gauges()
            doc = run_job(
                job.directory,
                job.spec,
                executor,
                cancel_event=job.cancel_event,
                progress=progress,
                fsync=self.fsync,
            )
            job.state = doc.get("state", job.state)
            job.done = int(doc.get("points_done", job.done))
            job.error = doc.get("error")
        except Exception as exc:
            job.state = "FAILED"
            job.error = str(exc)
        finally:
            executor.close()
            with self._lock:
                self._start_ready()
                self._refresh_gauges()

    def shutdown(self, timeout_s: float = 30.0) -> None:
        """Graceful stop: drop the queue, cancel live jobs, join threads.

        Running jobs stop at their next checkpoint, so everything they
        had durably acknowledged stays resumable.
        """
        with self._lock:
            self._queue.clear()
            threads = []
            for job in self._jobs.values():
                if job.live:
                    job.cancel_event.set()
                    threads.append(job.thread)
        deadline = time.monotonic() + max(0.0, timeout_s)
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    def _refresh_gauges(self) -> None:
        registry = metrics()
        counts = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        for state, count in counts.items():
            registry.gauge("jobs.state", state=state).set(float(count))
