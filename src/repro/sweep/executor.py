"""The parallel, cache-aware sweep executor.

All sweep entry points (`sweep_parameters`, Table 1, the co-execution
figures, the CLI and ``examples/reproduce_paper.py``) funnel their
parameter points through a :class:`SweepExecutor`, which

1. checks each point against a persistent :class:`~repro.sweep.
   result_cache.ResultCache` (keyed by machine fingerprint + experiment
   kind + parameter point + trials),
2. prices ``gpu_point`` misses in-process, and fans ``coexec_sweep``
   misses (every miss, under a task deadline) out over a
   :class:`~repro.faults.supervisor.SupervisedWorkerPool` (``workers``
   from the argument, the ``REPRO_SWEEP_WORKERS`` environment variable,
   or :attr:`~repro.config.ReproConfig.sweep_workers`; ``workers=1``
   with no task timeout preserves the exact serial ordering and
   results) — the pool heartbeats its workers, restarts crashed or hung
   ones with bounded re-execution, verifies result checksums, and
   quarantines poison tasks as explicit failure records; graceful
   fallback to the serial path when a pool cannot be used — and
3. collates results deterministically in submission order, recording
   per-stage wall time and hit/miss/failed counters in :class:`~repro.
   sweep.instrumentation.SweepStats`.  Failure records are counted but
   never cached.

``gpu_point`` stages are always priced by the batch-vectorized slab
(:func:`repro.sim.batch.evaluate_gpu_slab`), in the process that asks,
whatever the worker count: pricing a point costs less than shipping it
to a worker and back.  The pool serves ``coexec_sweep`` stages.
Telemetry only adds spans around either.

A global per-task timeout (``--task-timeout`` / ``REPRO_SWEEP_TIMEOUT`` /
:attr:`~repro.config.ReproConfig.sweep_task_timeout_s`) records a
too-slow point as failed instead of aborting the sweep; setting it
routes every stage through the pool, even with one worker, since
enforcing a deadline requires process isolation.  There a ``gpu_point``
is one task, priced as a one-point slab, so the deadline stays a
per-point contract.

Worker processes rebuild the machine from a picklable
:class:`MachineSpec`; because every measurement is a pure function of
(machine spec, parameter point), parallel results are bit-identical to
serial ones.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..config import ReproConfig
from ..core.cases import Case
from ..core.coexec import (
    AllocationSite,
    CoExecMeasurement,
    CoExecSweep,
    CPU_PART_GRID,
    measure_coexec_sweep,
)
from ..core.machine import Machine
from ..core.optimized import KernelConfig
from ..core.timing import TRIALS
from ..errors import SpecError
from ..telemetry.state import get_telemetry, metrics, span as tele_span
from .fingerprint import CACHE_VERSION, fingerprint, machine_fingerprint_data
from .instrumentation import SweepStats
from .result_cache import ResultCache

__all__ = [
    "TIMEOUT_ENV",
    "WORKERS_ENV",
    "MachineSpec",
    "CoexecRequest",
    "SweepExecutor",
    "resolve_task_timeout",
    "resolve_workers",
]

#: Environment variable overriding the worker count (int, or ``auto``).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment variable setting the per-task timeout (seconds).
TIMEOUT_ENV = "REPRO_SWEEP_TIMEOUT"

#: Bound on the per-executor payload -> cache-key memo.
_MEMO_KEY_CAP = 65536

#: Default chunk width for :meth:`SweepExecutor.run_streaming` — the
#: coordinator's peak resident set is O(this), never O(total points).
DEFAULT_STREAM_CHUNK = 1024


def resolve_workers(workers: "int | str | None", config: ReproConfig) -> int:
    """Resolve the worker count: argument > env var > config > 1 (serial)."""
    source = "workers"
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            workers = env
            source = WORKERS_ENV
        elif config.sweep_workers is not None:
            workers = config.sweep_workers
        else:
            return 1
    if isinstance(workers, str):
        if workers.strip().lower() == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(workers)
        except ValueError:
            raise SpecError(
                f"{source} must be an integer or 'auto', got {workers!r}"
            ) from None
    if workers <= 0:
        return max(1, os.cpu_count() or 1)
    return int(workers)


def resolve_task_timeout(
    timeout: "float | str | None", config: ReproConfig
) -> Optional[float]:
    """Resolve the per-task timeout: argument > env var > config > off.

    Values <= 0 disable the deadline (so ``--timeout 0`` turns an
    environment-supplied timeout back off).
    """
    source = "timeout"
    if timeout is None:
        env = os.environ.get(TIMEOUT_ENV)
        if env:
            timeout = env
            source = TIMEOUT_ENV
        elif config.sweep_task_timeout_s is not None:
            timeout = config.sweep_task_timeout_s
        else:
            return None
    if isinstance(timeout, str):
        try:
            timeout = float(timeout)
        except ValueError:
            raise SpecError(
                f"{source} must be a number of seconds, got {timeout!r}"
            ) from None
    if timeout <= 0:
        return None
    return float(timeout)


@dataclass(frozen=True)
class MachineSpec:
    """Picklable recipe to rebuild a :class:`Machine` in a worker process."""

    system: Any
    calibration: Any
    config: ReproConfig
    icvs: Any

    @classmethod
    def of(cls, machine: Machine) -> "MachineSpec":
        return cls(
            system=machine.system,
            calibration=machine.calibration,
            config=machine.config,
            icvs=machine.runtime.icvs,
        )

    def build(self) -> Machine:
        return Machine(
            system=self.system,
            calibration=self.calibration,
            config=self.config,
            icvs=self.icvs,
        )


@dataclass(frozen=True)
class CoexecRequest:
    """One cacheable co-execution sweep (a full p grid for one case)."""

    case: Case
    site: AllocationSite
    config: Optional[KernelConfig] = None
    p_grid: Tuple[float, ...] = CPU_PART_GRID
    trials: int = TRIALS
    verify: Optional[bool] = None
    unified_memory: bool = True
    access_counter_threshold: Optional[int] = None


# --------------------------------------------------------------------------
# Task functions.  Module-level (picklable) so worker processes can run
# them; each returns a JSON-serializable dict, which is also what the
# result cache stores.
# --------------------------------------------------------------------------


def _task_coexec_sweep(machine: Machine, payload: tuple) -> dict:
    request: CoexecRequest = payload[0]
    sweep = measure_coexec_sweep(
        machine,
        request.case,
        request.site,
        request.config,
        p_grid=request.p_grid,
        trials=request.trials,
        verify=request.verify,
        unified_memory=request.unified_memory,
        access_counter_threshold=request.access_counter_threshold,
    )
    return {
        "measurements": [
            {
                "cpu_part": m.cpu_part,
                "elapsed_seconds": m.elapsed_seconds,
                "bandwidth_gbs": m.bandwidth_gbs,
                "gpu_seconds_steady": m.gpu_seconds_steady,
                "cpu_seconds_steady": m.cpu_seconds_steady,
                "migration_seconds": m.migration_seconds,
                "value": m.value.item(),
            }
            for m in sweep.measurements
        ]
    }


def _slab_records(machine: Machine, payloads: Sequence[tuple]) -> List[dict]:
    """Price *payloads* as one slab: the only way a ``gpu_point`` is priced,
    in-process or inside a pool worker."""
    # Imported lazily: repro.sim.batch reaches repro.sweep through the
    # model tables' fingerprinting, so a module-level import would cycle.
    from ..sim.batch import evaluate_gpu_slab

    with tele_span("sweep.slab", category="sweep", points=len(payloads)):
        return evaluate_gpu_slab(machine, payloads).records()


def _task_gpu_point(machine: Machine, payload: tuple) -> dict:
    return _slab_records(machine, [payload])[0]


_TASKS = {
    "gpu_point": _task_gpu_point,
    "coexec_sweep": _task_coexec_sweep,
}


def _sweep_from_record(request: CoexecRequest, record: dict) -> CoExecSweep:
    """Rebuild a :class:`CoExecSweep` from its cached JSON record."""
    rtype = request.case.result_type
    measurements = tuple(
        CoExecMeasurement(
            case=request.case,
            site=request.site,
            config=request.config,
            cpu_part=m["cpu_part"],
            trials=request.trials,
            elapsed_seconds=m["elapsed_seconds"],
            bandwidth_gbs=m["bandwidth_gbs"],
            gpu_seconds_steady=m["gpu_seconds_steady"],
            cpu_seconds_steady=m["cpu_seconds_steady"],
            migration_seconds=m["migration_seconds"],
            value=rtype.numpy.type(m["value"]),
        )
        for m in record["measurements"]
    )
    return CoExecSweep(
        case=request.case,
        site=request.site,
        config=request.config,
        measurements=measurements,
    )


class SweepExecutor:
    """Runs sweep points for one machine: cache first, then the in-process
    slab or the pool, then serial.

    Parameters
    ----------
    machine:
        The simulated node measurements run against (worker processes
        rebuild an identical one from its spec).
    workers:
        Pool width for co-execution sweeps and deadline runs (without a
        deadline, ``gpu_point`` stages are priced in-process whatever
        it is); ``None`` resolves through ``REPRO_SWEEP_WORKERS`` and
        :attr:`ReproConfig.sweep_workers`, defaulting to 1 (serial, the
        seed behaviour).  ``"auto"`` or any value <= 0 means one worker
        per CPU.
    cache:
        A :class:`ResultCache`, or ``None`` to disable result caching
        (every point recomputes, exactly as before this subsystem).
    task_timeout_s:
        Per-task wall-clock budget; ``None`` resolves through
        ``REPRO_SWEEP_TIMEOUT`` and :attr:`ReproConfig.
        sweep_task_timeout_s`, defaulting to no deadline.  Setting one
        routes computation through the supervised pool (even with one
        worker), where a too-slow point becomes a failure record
        instead of aborting the sweep.
    """

    def __init__(
        self,
        machine: Machine,
        workers: "int | str | None" = None,
        cache: Optional[ResultCache] = None,
        task_timeout_s: "float | str | None" = None,
    ):
        self.machine = machine
        self.workers = resolve_workers(workers, machine.config)
        self.cache = cache
        self.task_timeout_s = resolve_task_timeout(
            task_timeout_s, machine.config
        )
        self._pool: Optional[Any] = None
        # When profiling, back the stage counters by the global
        # telemetry registry so they appear in exported traces.
        telemetry = get_telemetry()
        self.stats = SweepStats(
            registry=telemetry.registry if telemetry.enabled else None
        )
        # The mode names what runs.  Under a deadline every computed
        # point goes through the pool; without one only a pooled
        # co-execution stage does, and _compute_pool records it.
        self.stats.mode = (
            "serial" if self.task_timeout_s is None
            else f"processes({self.workers})"
        )
        self._machine_fp = fingerprint(machine_fingerprint_data(machine))
        # Payload -> key memo: fingerprinting re-canonicalizes the same
        # frozen payload objects on every run, and repeat sweeps over a
        # warm cache spend most of their time there.  Payloads are
        # frozen dataclasses / ints / None, hence hashable.
        self._key_memo: Dict[Any, str] = {}

    @property
    def machine_fingerprint(self) -> str:
        """The machine's cache fingerprint (scrape/build attribution)."""
        return self._machine_fp

    # -- cache keys -----------------------------------------------------------
    def cache_key(self, kind: str, payload: Any) -> str:
        try:
            key = self._key_memo.get((kind, payload))
        except TypeError:  # unhashable payload: compute without memo
            return self._fingerprint_key(kind, payload)
        if key is None:
            key = self._fingerprint_key(kind, payload)
            if len(self._key_memo) >= _MEMO_KEY_CAP:
                self._key_memo.clear()
            self._key_memo[(kind, payload)] = key
        return key

    def _fingerprint_key(self, kind: str, payload: Any) -> str:
        digest = fingerprint(
            {
                "version": CACHE_VERSION,
                "machine": self._machine_fp,
                "kind": kind,
                "payload": payload,
            }
        )
        return f"{kind}-{digest}"

    # -- execution ------------------------------------------------------------
    def run(self, kind: str, payloads: Sequence[tuple], stage: str) -> List[dict]:
        """Resolve every payload to its result record, in order."""
        payloads = list(payloads)
        with tele_span("sweep.stage", category="sweep", stage=stage,
                       kind=kind) as sp:
            return self._run_stage(kind, payloads, stage, sp)

    def run_streaming(
        self,
        kind: str,
        payloads: Iterable[tuple],
        stage: str,
        sink: Callable[[int, dict], None],
        chunk_size: int = DEFAULT_STREAM_CHUNK,
        checkpoint: Optional[Callable[[int], None]] = None,
        start_index: int = 0,
    ) -> int:
        """Resolve *payloads* lazily, handing each record to *sink* in order.

        The bounded-memory collation path: payloads are drawn from the
        iterable ``chunk_size`` at a time, each chunk resolves through
        the normal cache -> pool -> serial pipeline, and every record is
        passed to ``sink(index, record)`` — in strict submission order —
        then dropped, so the coordinator never holds more than one
        chunk of results regardless of sweep size.  ``checkpoint(done)``
        (when given) runs after each chunk's records have all been
        sunk, with the cumulative count resolved so far; raising from it
        aborts the run (the :mod:`repro.jobs` cancel path).  Indices
        start at ``start_index`` (a resumed job's first missing point).

        Returns the number of points resolved.
        """
        if chunk_size < 1:
            raise SpecError(f"chunk_size must be >= 1, got {chunk_size}")
        done = 0
        index = start_index
        iterator = iter(payloads)
        while True:
            chunk: List[tuple] = []
            for payload in iterator:
                chunk.append(payload)
                if len(chunk) >= chunk_size:
                    break
            if not chunk:
                break
            records = self.run(kind, chunk, stage)
            chunk.clear()
            for j, record in enumerate(records):
                sink(index + j, record)
                records[j] = None  # type: ignore[call-overload]
            index += len(records)
            done += len(records)
            del records
            if checkpoint is not None:
                checkpoint(done)
        return done

    def _run_stage(
        self, kind: str, payloads: List[tuple], stage: str, sp: Any
    ) -> List[dict]:
        # Hand-rolled equivalent of ``stats.timed(stage)``: the generator
        # contextmanager costs a few microseconds, which warm all-hit
        # stages actually notice.
        st = self.stats.stage(stage)
        started = time.perf_counter()
        try:
            results = self._resolve_stage(kind, payloads, st, sp)
        except BaseException:
            st.add_error()
            raise
        finally:
            st.add_wall(time.perf_counter() - started)
        return results

    def _resolve_stage(
        self, kind: str, payloads: List[tuple], st: Any, sp: Any
    ) -> List[dict]:
        st.add_points(len(payloads))
        results: List[Optional[dict]] = [None] * len(payloads)
        keys: List[Optional[str]] = [None] * len(payloads)
        misses: List[int] = []
        cache = self.cache
        if cache is not None:
            cache_key = self.cache_key
            cache_get = cache.get
            for i, payload in enumerate(payloads):
                key = cache_key(kind, payload)
                keys[i] = key
                hit = cache_get(key)
                if hit is None:
                    misses.append(i)
                else:
                    results[i] = hit
            st.add_cache_hits(len(payloads) - len(misses))
        else:
            misses = list(range(len(payloads)))
        sp.set(points=len(payloads), cache_hits=len(payloads) - len(misses))
        if misses:
            computed = self._compute(kind, [payloads[i] for i in misses])
            st.add_computed(len(misses))
            failed = 0
            for i, record in zip(misses, computed):
                results[i] = record
                if isinstance(record, dict) and record.get("failed"):
                    # Timed-out or quarantined point: visible in the
                    # stats and the record, but never cached — the
                    # next run gets a fresh attempt.
                    failed += 1
                    continue
                if cache is not None and keys[i] is not None:
                    cache.put(keys[i], record)
            if failed:
                st.add_failed(failed)
                sp.set(failed=failed)
        return results  # type: ignore[return-value]

    def _compute(self, kind: str, payloads: List[tuple]) -> List[dict]:
        # Without a deadline a gpu_point stage is one in-process slab;
        # the pool serves coexec_sweep, and every kind under a deadline.
        if self.task_timeout_s is None and (
            kind == "gpu_point" or self.workers == 1 or len(payloads) < 2
        ):
            return self._compute_serial(kind, payloads)
        try:
            return self._compute_pool(kind, payloads)
        except Exception:
            # Pools can be unavailable (pickling limits, sandboxed
            # platforms, no process to fork) or exhaust their restart
            # budget; the serial path is always correct, just slower
            # and without crash isolation.
            self.stats.mode = "serial (pool unavailable)"
            self.close()
            return self._compute_serial(kind, payloads)

    def _compute_serial(self, kind: str, payloads: List[tuple]) -> List[dict]:
        if kind == "gpu_point":
            return _slab_records(self.machine, payloads)
        task = _TASKS[kind]
        results = []
        for payload in payloads:
            with tele_span("sweep.point", category="sweep", kind=kind):
                results.append(task(self.machine, payload))
        return results

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            # Imported lazily: repro.faults.supervisor itself imports
            # from repro.sweep, so a module-level import would cycle.
            from ..faults.supervisor import SupervisedWorkerPool

            self._pool = SupervisedWorkerPool(
                MachineSpec.of(self.machine),
                _TASKS,
                workers=self.workers,
                task_timeout_s=self.task_timeout_s,
            )
        return self._pool

    def _ingest_spans(self, spans: Any) -> None:
        if spans:
            # Adopt the workers' spans under the current stage span so
            # the exported timeline keeps one tree.
            recorder = get_telemetry().recorder
            recorder.ingest(spans, parent_id=recorder.current_id())

    def _compute_pool(self, kind: str, payloads: List[tuple]) -> List[dict]:
        pool = self._ensure_pool()
        self.stats.mode = f"processes({self.workers})"
        metrics().counter("sweep.payload_bytes", transport="pickle").add(
            sum(
                len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
                for p in payloads
            )
        )
        records, spans = pool.run(kind, payloads)
        self._ingest_spans(spans)
        return records

    def close(self) -> None:
        """Shut down the worker pool, if one was started (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- typed front doors ----------------------------------------------------
    def gpu_points(
        self,
        case: Case,
        configs: Sequence[Optional[KernelConfig]],
        trials: int = TRIALS,
        verify: Optional[bool] = False,
        stage: str = "gpu-sweep",
        op: str = "+",
    ) -> List[dict]:
        """Measure *case* at every config; returns the result records.

        ``config=None`` entries measure the baseline.  Each record has
        ``bandwidth_gbs``, ``elapsed_seconds`` and ``value``.  ``op``
        selects the reduction identifier; the default sum builds the
        historical 4-tuple payloads so existing cache entries keep their
        fingerprints.
        """
        payloads = [
            ((case, config, trials, verify) if op == "+"
             else (case, config, trials, verify, op))
            for config in configs
        ]
        return self.run("gpu_point", payloads, stage)

    def gpu_bandwidths(
        self,
        case: Case,
        configs: Sequence[Optional[KernelConfig]],
        trials: int = TRIALS,
        verify: Optional[bool] = False,
        stage: str = "gpu-sweep",
    ) -> List[float]:
        """Bandwidth-only convenience over :meth:`gpu_points`."""
        return [
            r["bandwidth_gbs"]
            for r in self.gpu_points(case, configs, trials, verify, stage)
        ]

    def coexec_sweeps(
        self,
        requests: Sequence[CoexecRequest],
        stage: str = "coexec",
    ) -> List[CoExecSweep]:
        """Run each co-execution request (p order stays serial inside each).

        Requests are independent of one another, so they parallelize
        across the pool even though the A1 residency story forces each
        request's own p grid to run in ascending order.
        """
        records = self.run(
            "coexec_sweep", [(request,) for request in requests], stage
        )
        return [
            _sweep_from_record(request, record)
            for request, record in zip(requests, records)
        ]
