"""Perf-regression gate: time the hot paths, compare to a baseline.

Nine benchmarks cover the hot paths, each reported as the **best of N
repeats** (minimum is the standard noise-robust statistic for
microbenchmarks):

* ``sim_microbench`` — one optimized Listing-5 measurement through the
  full compile -> launch -> perf-model -> functional-execute pipeline
  (the scalar oracle's unit of work; every repeat runs all of it);
* ``warm_cache_sweep`` — a Figure-1-style teams sweep answered entirely
  from a pre-warmed persistent result cache (the PR-1 fast path that
  makes ``reproduce_paper.py`` ~100x faster than the seed);
* ``service_p99`` — p99 latency of in-process service submissions
  against a warm cache (the PR-3 latency budget), via the loadgen's
  nearest-rank percentile;
* ``slab_microbench`` — amortized per-point cost of one batch-vectorized
  slab evaluation (:mod:`repro.sim.batch`) over >= 1024 distinct points;
* ``telemetry_overhead`` — the sim microbench unit of work with the
  telemetry layer *enabled* (span recording on), alongside the disabled
  time from interleaved off/on rounds: one code path both ways, so the
  cost of the spans is gated;
* ``stream_write`` — amortized per-record cost of the jobs result
  store's append path (:mod:`repro.jobs.store`) for a ``gpu_point``
  job's record: the line template, sequential-shard append, rotation;
* ``checkpoint_overhead`` — a warm-cache streamed sweep through
  :meth:`~repro.sweep.executor.SweepExecutor.run_streaming` with
  checkpointing *on* (store flush + checkpoint + manifest every
  interval), alongside the checkpoint-free time, gating the durability
  tax of :mod:`repro.jobs` (acceptance target: < 5% overhead);
* ``ring_lookup`` / ``membership_tick`` — the cluster's consistent-hash
  owner lookup and lease sweep (:mod:`repro.cluster`).

``repro verify perf`` writes the current numbers to ``BENCH_verify.json``
and compares them against the committed baseline with a noise-aware
threshold: a benchmark regresses only when it is ``threshold`` times
slower than baseline (default 4x — CI machines are noisy and shared;
the gate is for order-of-magnitude rot, not 5% drift).  Speed-ups and
new benchmarks never fail the gate.
"""

from __future__ import annotations

import asyncio
import json
import platform
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..config import DEFAULT_CONFIG
from ..core.cases import case_by_name
from ..core.machine import Machine
from ..core.optimized import KernelConfig
from ..core.timing import measure_gpu_reduction
from ..service.loadgen import percentile
from ..sweep.executor import SweepExecutor
from ..sweep.result_cache import open_result_cache

__all__ = [
    "BenchReport",
    "compare_benchmarks",
    "default_baseline_path",
    "run_perf_suite",
]

#: Default regression threshold: current/baseline ratio that fails.
DEFAULT_THRESHOLD = 4.0

#: Functional cap for the benchmark machine — big enough to exercise the
#: vectorized paths, small enough that a full suite run stays < 10 s.
_BENCH_CAP = 1 << 16

_SWEEP_TEAMS = (128, 512, 2048, 8192, 32768)
_SERVICE_SUBMITS = 40


def default_baseline_path() -> Path:
    """The committed baseline: ``BENCH_verify.json`` at the repo root."""
    return Path(__file__).resolve().parents[3] / "BENCH_verify.json"


@dataclass
class BenchReport:
    """Timings from one perf-suite run."""

    benchmarks: Dict[str, Dict[str, Any]]
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"meta": self.meta, "benchmarks": self.benchmarks}

    def write(self, path: "Path | str") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")
        return path

    def describe(self) -> str:
        lines = []
        for name, entry in sorted(self.benchmarks.items()):
            lines.append(f"{name}: {entry['seconds'] * 1e3:.2f} ms")
        return "\n".join(lines)


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_sim_microbench(machine: Machine, repeats: int) -> float:
    case = case_by_name("C1")
    config = KernelConfig(teams=4096, v=4, threads=256)

    def once() -> None:
        measure_gpu_reduction(machine, case, config, trials=200, verify=True)

    once()  # warm compile/workload caches out of the timed region
    return _best(once, repeats)


def _bench_warm_cache_sweep(machine: Machine, repeats: int) -> float:
    case = case_by_name("C1")
    configs = [KernelConfig(teams=t, v=4, threads=256) for t in _SWEEP_TEAMS]
    with tempfile.TemporaryDirectory(prefix="repro-perfgate-") as tmp:
        executor = SweepExecutor(
            machine, workers=1, cache=open_result_cache(tmp)
        )
        executor.gpu_points(case, configs, trials=200, verify=False)  # warm

        def once() -> None:
            executor.gpu_points(case, configs, trials=200, verify=False)

        return _best(once, repeats)


def _bench_service_p99(machine: Machine, repeats: int) -> float:
    from ..service.api import SimRequest
    from ..service.scheduler import ReductionService, ServiceSettings

    case = case_by_name("C1")
    config = KernelConfig(teams=4096, v=4, threads=256)

    async def p99_once() -> float:
        with tempfile.TemporaryDirectory(prefix="repro-perfgate-") as tmp:
            service = ReductionService(
                machine=machine,
                executor=SweepExecutor(
                    machine, workers=1, cache=open_result_cache(tmp)
                ),
                settings=ServiceSettings(degrade=False),
            )
            try:
                # First submit computes and fills the cache; the timed
                # population measures the warm fast path, like the PR-3
                # latency gate.
                await service.submit(
                    SimRequest(experiment="gpu", case=case, config=config,
                               trials=200)
                )
                latencies: List[float] = []
                for _ in range(_SERVICE_SUBMITS):
                    started = time.perf_counter()
                    response = await service.submit(
                        SimRequest(experiment="gpu", case=case,
                                   config=config, trials=200)
                    )
                    latencies.append(time.perf_counter() - started)
                    assert response.ok
                return percentile(latencies, 99)
            finally:
                await service.stop()

    return min(asyncio.run(p99_once()) for _ in range(repeats))


def _slab_payloads(count: int) -> List[tuple]:
    """At least *count* distinct, valid ``gpu_point`` payloads."""
    payloads: List[tuple] = []
    for name in ("C1", "C2", "C3", "C4"):
        case = case_by_name(name)
        for k in range(4, 17):
            for v in (1, 2, 4, 8, 16):
                for threads in (64, 128, 256, 512):
                    teams = 1 << k
                    if teams < v:
                        continue
                    payloads.append(
                        (case, KernelConfig(teams=teams, v=v,
                                            threads=threads), 200, False)
                    )
                    if len(payloads) >= count:
                        return payloads
    return payloads


def _bench_slab_microbench(machine: Machine, repeats: int) -> Dict[str, Any]:
    """Amortized per-point cost of one whole-slab evaluation (>= 1024),
    records included, as the serial executor pays it."""
    from ..sim.batch import evaluate_gpu_slab

    payloads = _slab_payloads(1024)

    def once() -> None:
        evaluate_gpu_slab(machine, payloads).records()

    once()  # warm compile/workload/value caches out of the timed region
    seconds = _best(once, repeats)
    return {
        "seconds": seconds,
        "points": len(payloads),
        "per_point_s": seconds / len(payloads),
    }


def _bench_telemetry_overhead(
    machine: Machine, repeats: int
) -> Dict[str, Any]:
    """Enabled-vs-disabled telemetry cost of the sim-microbench unit.

    The off and on samples alternate, one pair per round, so drift in
    the machine's load lands on both sides; ``overhead_ratio`` is the
    median of the per-round on/off ratios.
    """
    from ..telemetry.state import configure, get_telemetry

    case = case_by_name("C1")
    config = KernelConfig(teams=4096, v=4, threads=256)

    def timed(enabled: bool) -> float:
        configure(enabled=enabled)
        started = time.perf_counter()
        measure_gpu_reduction(machine, case, config, trials=200, verify=True)
        return time.perf_counter() - started

    previous = get_telemetry().enabled
    try:
        # Warm compile/workload caches out of the timed rounds.
        timed(False)
        timed(True)
        rounds = [(timed(False), timed(True)) for _ in range(repeats)]
    finally:
        configure(enabled=previous, reset=True)
    disabled = min(off for off, _ in rounds)
    enabled = min(on for _, on in rounds)
    return {
        "seconds": enabled,
        "disabled_s": disabled,
        "overhead_s": max(0.0, enabled - disabled),
        "overhead_ratio": statistics.median(on / off for off, on in rounds),
    }


def _bench_stream_write(machine: Machine, repeats: int) -> Dict[str, Any]:
    """Amortized per-record append cost of the jobs result store, for the
    record a ``gpu_point`` job writes."""
    from ..jobs.store import ResultStore

    record = {
        "bandwidth_gbs": 123.456, "elapsed_seconds": 1.234e-3,
        "value": -135550,
    }
    digest = "0123456789abcdef"
    count = 4096

    with tempfile.TemporaryDirectory(prefix="repro-perfgate-") as tmp:
        base = Path(tmp)
        runs = [0]

        def once() -> None:
            # A fresh store each run: appends are strictly sequential.
            runs[0] += 1
            store = ResultStore(base / f"run-{runs[0]}", shard_records=1024)
            for index in range(count):
                store.append(index, digest, record)
            store.flush()
            store.close()

        once()  # warm the allocator/import path out of the timed region
        seconds = _best(once, repeats)
    return {
        "seconds": seconds,
        "records": count,
        "per_record_s": seconds / count,
    }


def _bench_checkpoint_overhead(
    machine: Machine, repeats: int
) -> Dict[str, Any]:
    """Checkpointing-on vs -off cost of a warm-cache streamed sweep.

    Both variants stream the same ~4k warm points (the ~1k distinct
    grid cycled, so every chunk is a cache hit) through
    ``run_streaming`` into a real :class:`~repro.jobs.store.ResultStore`;
    the checkpointed one additionally performs
    :func:`repro.jobs.run_job`'s per-interval work at the JobSpec
    defaults (interval 1024, shard_records 8192): store flush plus an
    in-place checkpoint rewrite every interval, and the manifest/state
    rewrites on shard rotation / the first checkpoint, exactly as
    ``run_job``'s steady state does.

    A steady-state interval's checkpoint (the flush and the in-place
    rewrite) costs a few tenths of a millisecond and the first one a
    few milliseconds, since it creates the checkpoint, manifest and
    state files, against a streamed run of a few tens of milliseconds
    (5–10 ms of warm-cache point work per interval) — smaller than the
    run-to-run variance of that run on a shared machine — so
    ``overhead_ratio`` is computed from the checkpoint callbacks timed
    *inside* the best checkpointed run (numerator and denominator from
    the same run, so run-to-run noise cancels) rather than from the
    difference of two independently noisy totals.  ``plain_s`` keeps
    the checkpointing-off A/B total for context.
    """
    from ..jobs.checkpoint import write_checkpoint
    from ..jobs.store import ResultStore, atomic_write_json

    distinct = _slab_payloads(2048)
    payloads = distinct * 4
    digest = "0123456789abcdef"
    interval = 1024

    with tempfile.TemporaryDirectory(prefix="repro-perfgate-") as tmp:
        base = Path(tmp)
        executor = SweepExecutor(
            machine, workers=1, cache=open_result_cache(base / "cache")
        )
        try:
            executor.run("gpu_point", distinct, stage="perfgate-warm")
            runs = [0]

            def run_once(checkpointed: bool) -> float:
                """Stream once; returns seconds spent in checkpoints."""
                runs[0] += 1
                directory = base / f"run-{runs[0]}"
                store = ResultStore(directory, shard_records=8192)
                manifest_base = {"job_id": "jperfgate", "points_total":
                                 len(payloads)}
                manifest_shards = [-1]
                ckpt_s = [0.0]

                def sink(index: int, record: dict) -> None:
                    store.append(index, digest, record)

                checkpoint = None
                if checkpointed:
                    def checkpoint(done: int) -> None:
                        started = time.perf_counter()
                        store.flush()
                        write_checkpoint(
                            directory, job_id="jperfgate",
                            spec_digest="bench", points_digest="bench",
                            points_done=done,
                            points_total=len(payloads),
                        )
                        shards = len(store.shard_names())
                        if shards != manifest_shards[0]:
                            store.write_manifest(manifest_base)
                            if manifest_shards[0] < 0:
                                atomic_write_json(
                                    directory / "state.json",
                                    {"state": "CHECKPOINTED",
                                     "points_done": done,
                                     "points_total": len(payloads)},
                                )
                            manifest_shards[0] = shards
                        ckpt_s[0] += time.perf_counter() - started

                executor.run_streaming(
                    "gpu_point", iter(payloads), stage="perfgate-stream",
                    sink=sink, chunk_size=interval, checkpoint=checkpoint,
                )
                store.close()
                return ckpt_s[0]

            run_once(False)  # warm
            plain = checked = float("inf")
            overhead = float("inf")
            for _ in range(max(repeats, 5)):
                started = time.perf_counter()
                run_once(False)
                plain = min(plain, time.perf_counter() - started)
                started = time.perf_counter()
                ckpt = run_once(True)
                total = time.perf_counter() - started
                if total < checked:
                    checked = total
                    overhead = ckpt
        finally:
            executor.close()
    return {
        "seconds": checked,
        "plain_s": plain,
        "points": len(payloads),
        "checkpoint_interval": interval,
        "overhead_s": overhead,
        "overhead_ratio": checked / (checked - overhead)
        if checked > overhead else 1.0,
    }


def _bench_ring_lookup(machine: Machine, repeats: int) -> Dict[str, Any]:
    """Owner lookups against a populated consistent-hash ring.

    16 nodes x 64 vnodes is a bigger ring than any realistic deployment
    of this repo; the coordinator does one lookup (plus a preference
    walk on retry) per forwarded request and per job chunk, so lookup
    cost rides every cluster hot path.
    """
    from ..cluster.ring import HashRing

    ring = HashRing()
    for index in range(16):
        ring.add(f"node-{index:02d}")
    keys = [f"case-digest-{i}" for i in range(10_000)]

    def once() -> None:
        for key in keys:
            ring.lookup(key)

    once()  # warm the sorted-points cache out of the timed region
    seconds = _best(once, repeats)
    return {
        "seconds": seconds,
        "lookups": len(keys),
        "per_lookup_s": seconds / len(keys),
    }


def _bench_membership_tick(machine: Machine, repeats: int) -> Dict[str, Any]:
    """Lease sweeps over a 64-node membership table.

    The coordinator ticks at ``lease_s / 2``; a tick walks every node
    comparing idle time against lease and grace.  The steady state
    (everyone renewing, no transitions) is the case that runs forever,
    so that is what the gate times.
    """
    from ..cluster.membership import Membership

    clock = [1000.0]
    membership = Membership(lease_s=3.0, grace_s=6.0,
                            clock=lambda: clock[0])
    nodes = [membership.join(f"http://10.0.0.{i}:8077") for i in range(64)]
    ticks = 1000

    def once() -> None:
        for _ in range(ticks):
            membership.tick()

    # Keep every lease fresh: transitions allocate, steady state must
    # not.  The injected clock never crosses lease_s between renewals.
    for node in nodes:
        membership.renew(node.node_id, node.generation)
    once()
    seconds = _best(once, repeats)
    return {
        "seconds": seconds,
        "ticks": ticks,
        "nodes": len(nodes),
        "per_tick_s": seconds / ticks,
    }


_BENCHES = {
    "sim_microbench": _bench_sim_microbench,
    "warm_cache_sweep": _bench_warm_cache_sweep,
    "service_p99": _bench_service_p99,
    "slab_microbench": _bench_slab_microbench,
    "telemetry_overhead": _bench_telemetry_overhead,
    "stream_write": _bench_stream_write,
    "checkpoint_overhead": _bench_checkpoint_overhead,
    "ring_lookup": _bench_ring_lookup,
    "membership_tick": _bench_membership_tick,
}


def run_perf_suite(
    machine: Optional[Machine] = None, repeats: int = 3
) -> BenchReport:
    """Run every benchmark; returns best-of-*repeats* timings."""
    machine = machine or Machine(config=DEFAULT_CONFIG.with_cap(_BENCH_CAP))
    benchmarks = {}
    for name, bench in sorted(_BENCHES.items()):
        result = bench(machine, repeats)
        entry = result if isinstance(result, dict) else {"seconds": result}
        entry["repeats"] = repeats
        benchmarks[name] = entry
    return BenchReport(
        benchmarks=benchmarks,
        meta={
            "functional_cap": machine.config.functional_elements_cap,
            "python": platform.python_version(),
            "statistic": "best",
        },
    )


def compare_benchmarks(
    current: BenchReport,
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Regressions of *current* against a loaded baseline document.

    Returns one record per benchmark that is more than ``threshold``
    times slower than its baseline.  Benchmarks missing from either side
    are skipped (a new benchmark has no baseline yet; a retired one has
    no current number).
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1, got {threshold}")
    base = baseline.get("benchmarks", {})
    regressions = []
    for name, entry in sorted(current.benchmarks.items()):
        ref = base.get(name)
        if not ref or not ref.get("seconds"):
            continue
        ratio = entry["seconds"] / ref["seconds"]
        if ratio > threshold:
            regressions.append(
                {
                    "benchmark": name,
                    "current_s": entry["seconds"],
                    "baseline_s": ref["seconds"],
                    "ratio": ratio,
                    "threshold": threshold,
                }
            )
    return regressions
