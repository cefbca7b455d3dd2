"""A supervised worker pool: heartbeats, timeouts, restarts, quarantine.

``concurrent.futures.ProcessPoolExecutor`` declares the whole pool
broken the moment one worker dies; for a resilience layer we need the
opposite — a crashed or hung worker is an *expected* event that costs
one restart and one bounded re-execution, never the sweep.  This pool
therefore manages its workers directly:

* **per-worker pipes** — a killed worker can only lose its own channel;
  a shared queue could be poisoned by a worker killed while holding the
  queue lock.
* **heartbeats** — workers stamp a lock-free shared array
  (``[last_beat, task_started]`` per slot) so the supervisor can tell a
  hung worker from a slow one without any cooperation from the task.
* **result checksums** — workers checksum each record *before* handing
  it over; the supervisor re-verifies, so a corrupted result (the
  ``wrong_result`` injection, or a real stray write) is detected and
  re-executed rather than silently collated.  This is the mechanism
  behind the chaos harness's "zero silently-wrong results" invariant.
* **bounded re-execution** — a task is retried ``max_task_retries``
  times across crashes/errors/corruption, then *quarantined*: it
  resolves to an explicit failure record (``{"failed": true, ...}``)
  so one poison point cannot abort or starve the sweep.
* **per-task timeout** — a task exceeding ``task_timeout_s`` kills its
  worker and resolves immediately as failed (a pathological config
  would time out on every retry, so none are attempted).

Worker crash/hang/slow/wrong-result faults inject at the
``worker.task`` point inside the worker process (see
:mod:`repro.faults.injector`), which forked and spawned workers inherit
through ``REPRO_FAULTS``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.flight import flight
from ..sweep.fingerprint import canonical_json
from ..telemetry.state import get_telemetry, metrics, span as tele_span
from .injector import active_plan, fire

__all__ = ["SupervisedWorkerPool", "failure_record", "record_checksum"]


def record_checksum(record: Any) -> str:
    """SHA-256 over the canonical JSON of a result record."""
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()


def failure_record(kind: str, message: str, attempts: int = 1) -> dict:
    """The explicit failed-point record a quarantined task resolves to.

    Shaped so downstream consumers (``gpu_bandwidths``, figure tuning,
    ``_sweep_from_record``) keep working: a failed point contributes
    zero bandwidth and an empty measurement list, never a KeyError.
    The service refuses to serve these as ``ok`` and the executor never
    caches them.
    """
    record: Dict[str, Any] = {
        "failed": True, "error": message, "attempts": attempts,
    }
    if kind == "gpu_point":
        record.update(
            {"bandwidth_gbs": 0.0, "elapsed_seconds": 0.0, "value": None}
        )
    elif kind == "coexec_sweep":
        record["measurements"] = []
    return record


def _corrupt_record(record: Any) -> Any:
    """Deterministically damage a record (the ``wrong_result`` mode)."""
    if isinstance(record, dict):
        bad = dict(record)
        for key, value in bad.items():
            if isinstance(value, float):
                bad[key] = value + 1.0
                return bad
        bad["__corrupted__"] = True
        return bad
    return {"__corrupted__": True, "original": record}


def _pool_worker_main(
    spec: Any,
    tasks: Dict[str, Callable[[Any, tuple], dict]],
    conn: "connection.Connection",
    beats: Any,
    slot: int,
    generation: int = 0,
) -> None:
    """Worker loop: beat, receive a task, run it, send the result back."""
    try:
        machine = spec.build()
    except BaseException as exc:  # pragma: no cover - catastrophic init
        try:
            conn.send((-1, "error", f"worker init failed: {exc}", None, None))
        finally:
            return
    plan = active_plan()
    if plan is not None:
        # Each spawn (initial slot or restart) continues the seeded
        # fault sequence from its own offset; replaying probe 0 would
        # make a first-draw crash rule kill every replacement worker.
        plan.advance(generation)
    recorder = get_telemetry().recorder
    while True:
        beats[2 * slot] = time.time()
        try:
            if not conn.poll(0.2):
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task_id, kind, payload = msg
        beats[2 * slot + 1] = time.time()
        mark = recorder.mark()
        try:
            mangle = False
            decision = fire("worker.task")
            if decision is not None:
                if decision.mode == "crash":
                    os._exit(3)
                elif decision.mode == "hang":
                    time.sleep(
                        decision.delay_s
                        if decision.delay_s is not None else 3600.0
                    )
                elif decision.mode == "slow":
                    time.sleep(
                        decision.delay_s
                        if decision.delay_s is not None else 0.05
                    )
                elif decision.mode == "wrong_result":
                    mangle = True
            with tele_span("sweep.point", category="sweep", kind=kind,
                           worker=True):
                record = tasks[kind](machine, payload)
            # Checksum the *true* record first: a wrong_result injection
            # (or any later corruption) must be visible as a mismatch.
            checksum = record_checksum(record)
            if mangle:
                record = _corrupt_record(record)
            conn.send((
                task_id, "ok", record, checksum, recorder.export_since(mark)
            ))
        except BaseException as exc:
            try:
                conn.send((
                    task_id, "error",
                    f"{type(exc).__name__}: {exc}", None, None,
                ))
            except (OSError, ValueError):
                return
        finally:
            beats[2 * slot + 1] = 0.0


class _WorkerHandle:
    __slots__ = ("proc", "conn", "slot")

    def __init__(self, proc, conn, slot: int):
        self.proc = proc
        self.conn = conn
        self.slot = slot


class SupervisedWorkerPool:
    """Crash/hang-tolerant process pool for sweep task functions.

    Parameters
    ----------
    spec:
        Picklable machine recipe (``MachineSpec``); each worker builds
        its own machine from it.
    tasks:
        ``kind -> task function`` table (module-level functions so they
        pickle under spawn).
    workers:
        Pool width (>= 1).
    task_timeout_s:
        Wall-clock budget per task; exceeding it kills the worker and
        resolves the point as failed.  ``None`` disables the deadline.
    heartbeat_timeout_s:
        Liveness bound: a worker silent for this long (mid-task with no
        completion, or idle with a stale beat) is presumed hung and
        restarted; its task is re-executed (bounded).
    max_task_retries:
        Re-executions allowed per task across crashes/errors/corruption
        before quarantine.
    restart_limit:
        Worker restarts allowed within one :meth:`run` call; ``None``
        scales with the work (``max(16, 2*workers + 3*len(payloads))``).
        Exhausting it raises ``RuntimeError`` (callers fall back to the
        serial path).
    """

    def __init__(
        self,
        spec: Any,
        tasks: Dict[str, Callable[[Any, tuple], dict]],
        workers: int,
        task_timeout_s: Optional[float] = None,
        heartbeat_timeout_s: float = 30.0,
        max_task_retries: int = 2,
        restart_limit: Optional[int] = None,
        poll_s: float = 0.05,
        registry=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.tasks = tasks
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_task_retries = max_task_retries
        self.restart_limit = restart_limit
        self.poll_s = poll_s
        self.registry = registry if registry is not None else metrics()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._beats = self._ctx.Array("d", 2 * workers, lock=False)
        self._generation = 0
        self._handles: List[_WorkerHandle] = [
            self._spawn(slot) for slot in range(workers)
        ]
        self._closed = False
        self.restarts = 0
        # One run at a time: the supervision loop owns the worker
        # handles, so concurrent callers (e.g. a hedged dispatch racing
        # its primary) serialize here instead of corrupting assignments.
        self._run_lock = threading.Lock()

    # -- worker lifecycle -----------------------------------------------------
    def _spawn(self, slot: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        self._beats[2 * slot] = time.time()
        self._beats[2 * slot + 1] = 0.0
        generation = self._generation
        self._generation += 1
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                self.spec, self.tasks, child_conn, self._beats, slot,
                generation,
            ),
            daemon=True,
            name=f"repro-sweep-worker-{slot}",
        )
        proc.start()
        child_conn.close()
        return _WorkerHandle(proc, parent_conn, slot)

    def _restart(self, handle: _WorkerHandle, budget: List[int]) -> None:
        if budget[0] <= 0:
            raise RuntimeError(
                "sweep worker restart budget exhausted "
                f"(after {self.restarts} restarts)"
            )
        budget[0] -= 1
        try:
            handle.proc.kill()
        except (OSError, AttributeError):  # pragma: no cover
            pass
        handle.proc.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        fresh = self._spawn(handle.slot)
        self._handles[handle.slot] = fresh
        self.restarts += 1
        self.registry.counter("sweep.pool.restarts").add(1)

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.conn.send(None)
            except (OSError, ValueError):
                pass
        for handle in self._handles:
            handle.proc.join(timeout=1.0)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- execution ------------------------------------------------------------
    def run(
        self, kind: str, payloads: Sequence[tuple]
    ) -> Tuple[List[dict], List[dict]]:
        """Resolve every payload to a record; returns (records, spans).

        Every index resolves — to a computed record or an explicit
        failure record — unless the restart budget collapses, which
        raises for the caller's serial fallback.
        """
        if self._closed:
            raise RuntimeError("supervised worker pool is closed")
        with self._run_lock:
            return self._run_supervised(kind, payloads)

    def _run_supervised(
        self, kind: str, payloads: Sequence[tuple]
    ) -> Tuple[List[dict], List[dict]]:
        n = len(payloads)
        results: List[Optional[dict]] = [None] * n
        done = [False] * n
        attempts = [0] * n
        pending: deque = deque(range(n))
        assigned: Dict[int, Tuple[int, float]] = {}  # slot -> (task, started)
        spans_out: List[dict] = []
        remaining = n
        black_box = flight()
        budget = [
            self.restart_limit
            if self.restart_limit is not None
            else max(16, 2 * self.workers + 3 * n)
        ]

        def finish(task_id: int, record: dict) -> None:
            nonlocal remaining
            if not done[task_id]:
                results[task_id] = record
                done[task_id] = True
                remaining -= 1

        def retry_or_quarantine(task_id: int, message: str) -> None:
            if done[task_id]:
                return
            attempts[task_id] += 1
            if attempts[task_id] > self.max_task_retries:
                self.registry.counter("sweep.pool.quarantined").add(1)
                finish(
                    task_id,
                    failure_record(kind, message, attempts=attempts[task_id]),
                )
            else:
                self.registry.counter("sweep.pool.retries").add(1)
                pending.append(task_id)

        while remaining:
            # 1. hand work to idle workers.
            if pending:
                for handle in self._handles:
                    if not pending:
                        break
                    if handle.slot in assigned:
                        continue
                    task_id = pending[0]
                    if done[task_id]:
                        pending.popleft()
                        continue
                    try:
                        handle.conn.send((task_id, kind, payloads[task_id]))
                    except (OSError, ValueError):
                        continue  # dead worker; the health check reaps it
                    pending.popleft()
                    assigned[handle.slot] = (task_id, time.time())
                    black_box.record(
                        "pool", "task_assigned",
                        task=task_id, kind=kind, slot=handle.slot,
                        worker_pid=handle.proc.pid,
                        attempt=attempts[task_id] + 1,
                    )
            # 2. drain completed results.
            busy = [
                h.conn for h in self._handles if h.slot in assigned
            ]
            for ready in connection.wait(busy, timeout=self.poll_s) if busy else ():
                handle = next(
                    h for h in self._handles if h.conn is ready
                )
                try:
                    msg = handle.conn.recv()
                except (EOFError, OSError):
                    continue  # worker died; the health check reaps it
                task_id, status, record, checksum, spans = msg
                if task_id < 0:
                    # Worker announced init failure: requeue whatever it
                    # held; the health check restarts it on EOF/death.
                    entry = assigned.pop(handle.slot, None)
                    if entry is not None and not done[entry[0]]:
                        pending.append(entry[0])
                    continue
                assigned.pop(handle.slot, None)
                if spans:
                    spans_out.extend(spans)
                if done[task_id]:
                    continue
                if status == "ok":
                    if checksum != record_checksum(record):
                        self.registry.counter(
                            "sweep.pool.wrong_results_detected"
                        ).add(1)
                        retry_or_quarantine(
                            task_id,
                            "result failed checksum verification "
                            "(corrupted in worker)",
                        )
                    else:
                        finish(task_id, record)
                else:
                    self.registry.counter("sweep.pool.task_errors").add(1)
                    retry_or_quarantine(task_id, str(record))
            # 3. health check: crashed, timed-out, and hung workers.
            now = time.time()
            for handle in list(self._handles):
                entry = assigned.get(handle.slot)
                if not handle.proc.is_alive():
                    self.registry.counter("sweep.pool.worker_crashes").add(1)
                    assigned.pop(handle.slot, None)
                    black_box.record(
                        "pool", "worker_crash",
                        slot=handle.slot,
                        worker_pid=handle.proc.pid,
                        exitcode=handle.proc.exitcode,
                        task=entry[0] if entry is not None else None,
                        kind=kind,
                        elapsed_s=(
                            round(now - entry[1], 6)
                            if entry is not None else None
                        ),
                    )
                    black_box.dump(
                        "worker_crash",
                        slot=handle.slot,
                        worker_pid=handle.proc.pid,
                        exitcode=handle.proc.exitcode,
                        task=entry[0] if entry is not None else None,
                        kind=kind,
                    )
                    if entry is not None:
                        retry_or_quarantine(
                            entry[0],
                            f"worker died mid-task (exit "
                            f"{handle.proc.exitcode})",
                        )
                    self._restart(handle, budget)
                    continue
                if entry is not None:
                    task_id, started = entry
                    elapsed = now - started
                    if (
                        self.task_timeout_s is not None
                        and elapsed > self.task_timeout_s
                    ):
                        self.registry.counter("sweep.pool.task_timeouts").add(1)
                        assigned.pop(handle.slot, None)
                        black_box.record(
                            "pool", "task_timeout",
                            task=task_id, kind=kind, slot=handle.slot,
                            elapsed_s=round(elapsed, 6),
                        )
                        finish(
                            task_id,
                            failure_record(
                                kind,
                                f"task exceeded {self.task_timeout_s:g}s "
                                "timeout",
                                attempts=attempts[task_id] + 1,
                            ),
                        )
                        self._restart(handle, budget)
                    elif (
                        self.task_timeout_s is None
                        and elapsed > self.heartbeat_timeout_s
                    ):
                        self.registry.counter("sweep.pool.hangs_detected").add(1)
                        assigned.pop(handle.slot, None)
                        black_box.record(
                            "pool", "worker_hang",
                            task=task_id, kind=kind, slot=handle.slot,
                            elapsed_s=round(elapsed, 6),
                        )
                        retry_or_quarantine(
                            task_id,
                            f"worker heartbeat lost after {elapsed:.1f}s "
                            "(hung)",
                        )
                        self._restart(handle, budget)
                elif (
                    now - self._beats[2 * handle.slot]
                    > max(self.heartbeat_timeout_s, 1.0)
                ):
                    # Idle worker that stopped beating: its recv loop is
                    # stuck; replace it before it is handed a task.
                    self.registry.counter("sweep.pool.hangs_detected").add(1)
                    self._restart(handle, budget)
        return results, spans_out  # type: ignore[return-value]
