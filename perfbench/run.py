#!/usr/bin/env python3
"""The repository benchmark: the paper, serve and job workloads.

    python3 perfbench/run.py --workload paper|serve|job --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout.  Every leg runs in a fresh process
started from the checkout's own sources, against fresh cache and job
directories under ``.perfbench_runs/``, with every ``REPRO_*`` variable
removed from its environment.  Every number is host time; the simulated
times and bandwidths are outputs, checked against the digests pinned in
``expected.json`` and never timed.

The run prints each metric by name and unit, then one JSON line:
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run next to an untraced one.  It exits non-zero when
an output digest differs, when any operation failed, or when a traced
run's layers cover less than 90% of its end-to-end time.  NOTES.md says
why each workload exists and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import serve_load  # noqa: E402
from tracing import clock, layer_of, self_times  # noqa: E402

ROOT = Path.cwd()
RUNS_DIR = ROOT / ".perfbench_runs"
#: Pinned output digests; ``pin.py`` writes them.
EXPECTED = json.loads((HERE / "expected.json").read_text()) \
    if (HERE / "expected.json").is_file() else {}
LEG_TIMEOUT_S = 150.0
MIN_COVERAGE = 0.90

# -- workload shapes ----------------------------------------------------------
# Cold passes repeat, each into an empty cache and each followed by warm
# passes over the cache it left: one cold pass moved by up to a third
# from one run to the next on the reference machine.
PAPER_MIN_COLD = 2
PAPER_WARM_PER_COLD = 3
SERVE_SERVERS = 5
SERVE_CONNECTIONS = 2  # nproc on the reference machine; see NOTES.md
SERVE_BASE_RATE = 100.0
SERVE_PHASE_REQUESTS = 1100  # >= 1000, so p99 has ten samples beyond it
SERVE_WARM_REQUESTS = 800
# Capacity: requests with a fixed number in flight, so no send rate caps
# the answers per second.  With sixteen in flight (eight per connection)
# the server was busy about 90% of the time on cache hits on the
# reference machine, and answered 12000-18000 of them per second.
SERVE_CAPACITY_REQUESTS = 10000
SERVE_CAPACITY_DEPTH = 16
# Doubling rungs of the open-loop rate ladder, run on the last server.
SERVE_LADDER = (375.0, 750.0, 1500.0)
SERVE_RUNG_MIN_S = 2.0
SERVE_P99_LIMIT_S = 0.500
SERVE_BACKLOG_S = 0.100
# The open-loop phases' shares of fresh points and pragma strings.  Both
# are assumptions, not measured traffic: nothing in the repository gives
# such shares (its load test sends only the hot pool, as structured
# bodies).  So no gated metric depends on them; see NOTES.md.
SERVE_FRESH_SHARE = 0.06
SERVE_DIRECTIVE_SHARE = 0.25
JOB_WORKERS = 2
JOB_MIN_TIMED = 3  # jobs timed in a run, at the least


def job_cpus() -> set:
    """The one CPU a job and its pool workers run on.

    Spread over two CPUs, each chunk waited for the slower of the two
    workers, and one job's time moved twice as much from one job to the
    next as on one CPU, where it was only 5% slower (NOTES.md).
    """
    return {max(os.sched_getaffinity(0))}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_ms": "ms",
    "rate_per_s": "1/s",
}

PER_LAYER = {
    "evaluation.self_s": "s",
    "sweep.executor.points": "count",
    "sweep.executor.self_s": "s",
    "sweep.fingerprint.calls": "count",
    "sweep.fingerprint.memo_hit_ratio": "ratio",
    "sweep.fingerprint.self_s": "s",
    "result_cache.get.calls": "count",
    "result_cache.get.hit_ratio": "ratio",
    "result_cache.get.self_s": "s",
    "result_cache.put.calls": "count",
    "result_cache.put.self_s": "s",
    "sim.batch.points": "count",
    "sim.batch.value_memo_ratio": "ratio",
    "sim.batch.self_s": "s",
    "gpu.exec_model.calls": "count",
    "gpu.exec_model.self_s": "s",
    "core.coexec.self_s": "s",
    "cpu.exec_model.self_s": "s",
    "sweep.shm.bytes": "bytes",
    "sweep.shm.self_s": "s",
    "faults.supervisor.wait_s": "s",
    "faults.supervisor.restarts": "count",
    "jobs.store.append.calls": "count",
    "jobs.store.append.self_s": "s",
    "jobs.store.flush.self_s": "s",
    "jobs.store.recover.records": "count",
    "jobs.store.recover.self_s": "s",
    "jobs.checkpoint.calls": "count",
    "jobs.checkpoint.self_s": "s",
    "jobs.manager.self_s": "s",
    "service.http.self_ms": "ms",
    "service.parse.calls": "count",
    "service.parse.memo_hit_ratio": "ratio",
    "service.parse.self_us": "us",
    "service.admission.rejected": "count",
    "service.admission.depth_max": "count",
    "service.batcher.wait_ms": "ms",
    "service.batcher.waiters_per_batch": "count",
    "service.scheduler.dispatch_ms": "ms",
    "service.scheduler.cache_hits": "count",
    "service.scheduler.coalesced": "count",
    "service.scheduler.computed": "count",
    "service.scheduler.retries": "count",
    "trace.e2e_s": "s",
    "trace.other_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.loadgen_late_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run the program at all."""


class Run:
    """One benchmark run: its directory, environment and bookkeeping."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.dir = RUNS_DIR / f"{args.workload}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # Nothing may fall back to ~/.cache/repro-*.
        self.env["HOME"] = str(self.dir / "home")
        self.env.pop("XDG_CACHE_HOME", None)
        self.setups: List[float] = []
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.problems: List[str] = []
        self.notes: List[str] = []
        self._legs = 0

    def leg(self, mode: str, argv: List[str], trace: bool = False,
            cpus: Optional[set] = None) -> Dict[str, Any]:
        """Run one leg through launch.py, on *cpus* if given; returns its
        report."""
        self._legs += 1
        stem = self.dir / f"leg{self._legs}"
        cmd = [sys.executable, str(HERE / "launch.py"), f"{stem}.json"]
        cmd += (["--trace"] if trace else []) + [mode] + argv
        started = clock()
        with open(f"{stem}.out", "wb") as out, \
                open(f"{stem}.err", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            try:
                if cpus:
                    # Processes it forks later inherit these CPUs.
                    os.sched_setaffinity(proc.pid, cpus)
                code = proc.wait(timeout=LEG_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"leg {' '.join(argv)} timed out")
            finally:
                if proc.poll() is None:  # timed out, or this run was stopped
                    proc.kill()
                    proc.wait()
        report_path = Path(f"{stem}.json")
        if not report_path.is_file():
            tail = Path(f"{stem}.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"leg exited {code} without a report:\n{tail}")
        report = json.loads(report_path.read_text())
        report["exit"] = code
        report["stdout"] = Path(f"{stem}.out")
        report["setup_s"] = report["ready"] - started
        report["work_s"] = report["end"] - report["ready"]
        report["first_run_s"] = (report["first_run"] or report["end"]) \
            - report["ready"]
        if not trace:
            self.setups.append(report["setup_s"])
            self.rss_kb = max(self.rss_kb, report["rss_kb"])
        return report

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass


# -- paper --------------------------------------------------------------------


def paper_output(path: Path) -> Dict[str, Any]:
    """Digest of the rendered reproduction, and its shape-check verdicts.

    The digest covers Table 1, the figures and the shape-check report.
    It leaves out the ``executor:`` header (it names the cache
    directory) and everything from the first ``sweep executor:`` line
    on: the executor instrumentation, with its wall times.
    """
    kept = []
    passed = failed = 0
    for line in path.read_text().splitlines():
        if line.startswith("sweep executor:"):
            break
        if line.startswith("executor: "):
            continue
        kept.append(line)
        if line.startswith("[PASS]"):
            passed += 1
        elif line.startswith("[FAIL]"):
            failed += 1
    return {"text_sha256": inputs.hashlib.sha256(
                "\n".join(kept).encode()).hexdigest(),
            "checks_passed": passed, "checks_failed": failed}


def paper_leg(run: Run, cache: Path, trace: bool = False) -> Dict[str, Any]:
    report = run.leg("example", ["--workers", "1", "--cache-dir", str(cache)],
                     trace=trace)
    expected = EXPECTED.get("paper", {})
    out = paper_output(report["stdout"])
    report.update(out)
    run.attempted += report["records"] + out["checks_passed"] \
        + out["checks_failed"]
    run.failed += report["failed_records"] + out["checks_failed"]
    if report["exit"] != 0:
        run.problems.append(f"reproduce_paper.py exited {report['exit']}")
    if out["checks_passed"] + out["checks_failed"] == 0:
        run.mismatches.append("paper: no shape-check report in the output")
    if report["records_sha256"] != expected.get("records_sha256"):
        run.mismatches.append(
            "paper: record digest differs from expected.json")
    if out["text_sha256"] != expected.get("text_sha256"):
        run.mismatches.append(
            "paper: rendered-output digest differs from "
            "expected.json")
    return report


def table1_error(cache: Path) -> float:
    """Mean relative error of the model's Table 1 against the paper.

    A correctness output, read back from the warm cache after timing.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro import Machine
    from repro.evaluation.paper_data import PAPER_TABLE1
    from repro.evaluation.tables import generate_table1
    from repro.sweep import SweepExecutor
    from repro.sweep.result_cache import ResultCache

    machine = Machine()
    executor = SweepExecutor(machine, workers=1, cache=ResultCache(cache))
    errors = []
    for row in generate_table1(machine, executor=executor).values():
        paper = PAPER_TABLE1[row.case.name]
        errors.append(abs(row.base_gbs / paper.base_gbs - 1.0))
        errors.append(abs(row.optimized_gbs / paper.optimized_gbs - 1.0))
    return sum(errors) / len(errors)


def run_paper(run: Run) -> Dict[str, float]:
    seconds = run.args.seconds
    if run.args.trace:
        untraced = [paper_leg(run, run.dir / "cache")]
        untraced.append(paper_leg(run, run.dir / "cache"))
        traced = [paper_leg(run, run.dir / "tcache", trace=True)]
        traced.append(paper_leg(run, run.dir / "tcache", trace=True))
        return traced_metrics(run, untraced, traced)
    started = clock()
    colds: List[Dict[str, Any]] = []
    warm: List[Dict[str, Any]] = []
    while len(colds) < PAPER_MIN_COLD or clock() - started < seconds:
        cache = run.dir / f"cache-{len(colds)}"
        colds.append(paper_leg(run, cache))
        warm += [paper_leg(run, cache) for _ in range(PAPER_WARM_PER_COLD)]
    if not run.mismatches:
        run.notes.append(
            f"Table 1 mean relative error vs the paper "
            f"(correctness output): {table1_error(cache):.6f}")
    cold_s = statistics.median(c["work_s"] for c in colds)
    times = sorted(w["work_s"] * 1e3 for w in warm)
    run.notes.append(
        f"paper: {len(colds)} cold passes after set-up (paper_cold_s: "
        + " ".join(f"{c['work_s']:.2f}" for c in colds)
        + f"), {len(warm)} warm passes (paper_warm_s, ms: min "
        f"{times[0]:.1f}, median {statistics.median(times):.1f}, max "
        f"{times[-1]:.1f}); {colds[0]['records']} records per pass")
    return {
        "cold_ms": cold_s * 1e3,
        "rate_per_s": colds[0]["records"] / cold_s,
    }


# -- job ----------------------------------------------------------------------


def job_once(run: Run, grid: inputs.JobGrid, tag: str, trace: bool = False,
             verified: Optional[str] = None) -> List[Dict[str, Any]]:
    """One job: a first leg paused at ``grid.pause``, then the resume.

    The job runs without the result cache: with it, one fsync'd put per
    point made the job's time follow the disk, which on the reference
    machine varied fivefold between runs (NOTES.md).  Its records are
    checked against ``expected.json``, unless *verified* is given: the
    digest of the files of an earlier job of the same grid whose records
    were checked, which this job's files must equal byte for byte.
    """
    directory = run.dir / f"job-{tag}"
    common = ["--no-cache", "--workers", str(JOB_WORKERS),
              "job", "run", "--dir", str(directory), "--quiet"]
    before = shm_segments()
    first = run.leg("cli", common + [
        "--case", inputs.JOB_CASE, "--teams", inputs.csv(grid.teams),
        "--v", inputs.csv(grid.v), "--threads", inputs.csv(grid.threads),
        "--trials", str(inputs.JOB_TRIALS), "--max-points", str(grid.pause)],
        trace=trace, cpus=job_cpus())
    second = run.leg("cli", common + ["--resume"], trace=trace,
                     cpus=job_cpus())
    leaked = shm_segments() - before
    if leaked:
        run.problems.append(
            f"job: {len(leaked)} /dev/shm/repro-slab-* segments "
            "left behind")
    run.attempted += grid.total
    states = [last_json(first["stdout"]), last_json(second["stdout"])]
    if first["exit"] or second["exit"] or \
            [s.get("state") for s in states] != ["CHECKPOINTED", "DONE"]:
        run.failed += grid.total
        run.problems.append(
            f"job: legs ended {[s.get('state') for s in states]}")
        return [first, second]
    files = job_files_sha256(directory)
    if verified is None:
        check_job_outputs(run, grid, directory, first, second)
    elif files != verified:
        run.mismatches.append(
            "job: the files differ from those of the run's checked job")
    first["files_sha256"] = second["files_sha256"] = files
    # Removed once checked, so the run's later jobs do not share the
    # disk with the writeback of this one's 12 MB of files.
    shutil.rmtree(directory, ignore_errors=True)
    return [first, second]


def job_warm_up(run: Run, grid: inputs.JobGrid) -> None:
    """An untimed job in one leg over the grid's first teams and V.

    The first job of a run read up to half as slow again as the rest on
    the reference machine.  Its records are not checked: it is another
    job than the one timed.
    """
    leg = run.leg("cli", [
        "--no-cache", "--workers", str(JOB_WORKERS), "job", "run",
        "--dir", str(run.dir / "job-warm-up"), "--quiet",
        "--case", inputs.JOB_CASE, "--teams", str(grid.teams[0]),
        "--v", str(grid.v[0]), "--threads", inputs.csv(grid.threads)],
        cpus=job_cpus())
    state = last_json(leg["stdout"]).get("state")
    if leg["exit"] or state != "DONE":
        run.problems.append(f"job: the warm-up job ended {state}")
    shutil.rmtree(run.dir / "job-warm-up", ignore_errors=True)


def last_json(path: Path) -> Dict[str, Any]:
    text = path.read_text()
    start = text.rfind("\n{")
    try:
        return json.loads(text[start + 1:] if start >= 0 else text)
    except ValueError:
        return {}


def check_job_outputs(run: Run, grid: inputs.JobGrid, directory: Path,
                      *legs: Dict[str, Any]) -> None:
    """Every shard record against the pinned digest, and the manifest.

    Record *i* is paired with the grid's point *i*, so a record stored
    at the wrong index changes the digest of the pairs.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.jobs.store import ResultStore

    store = ResultStore(directory)
    manifest = store.read_manifest() or {}
    expected = EXPECTED.get("job", {})
    sha = inputs.hashlib.sha256()
    pairs = []
    points = grid.points()
    count = misplaced = 0
    for shard in manifest.get("shards", []):
        with open(store.shard_dir / shard["name"], "rb") as fh:
            for line in fh:
                doc = json.loads(line)
                # The store writes floats as their repr strings.
                record = {k: float(v) if isinstance(v, str) else v
                          for k, v in doc["r"].items()}
                misplaced += doc["i"] != count
                point = next(points, None)
                digest = inputs.digest(record)
                pairs.append(f"{inputs.job_key(*point)}={digest}"
                             if point else f"extra={digest}")
                sha.update(inputs.canonical(record) + b"\n")
                count += 1
    if misplaced or count != grid.total or \
            inputs.records_digest(pairs) != expected.get("records_sha256"):
        run.mismatches.append(
            f"job: {count} records ({misplaced} out of order) differ "
            f"from expected.json (want {grid.total})")
    if not manifest.get("complete") or \
            manifest.get("points_total") != grid.total:
        run.mismatches.append("job: manifest is not sealed over every point")
    if manifest.get("machine") != expected.get("machine") or \
            manifest.get("points_digest") != \
            grid.points_digest(expected.get("machine", "")):
        run.mismatches.append(
            "job: the manifest's machine or points_digest differs from "
            "expected.json")
    sha.update(str(manifest.get("points_digest")).encode())
    for leg in legs:
        leg["job_sha256"] = sha.hexdigest()


def job_files_sha256(directory: Path) -> str:
    """SHA-256 of a job's manifest and shards, byte for byte."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.jobs.store import ResultStore

    store = ResultStore(directory)
    sha = inputs.hashlib.sha256(store.manifest_path.read_bytes())
    for name in store.shard_names():
        sha.update((store.shard_dir / name).read_bytes())
    return sha.hexdigest()


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro-slab-")}
    except OSError:
        return set()


def run_job(run: Run) -> Dict[str, float]:
    grid = inputs.JobGrid.from_seed(run.args.seed)
    if run.args.trace:
        untraced = job_once(run, grid, "u")
        traced = job_once(run, grid, "t", trace=True)
        if untraced[-1].get("job_sha256") != traced[-1].get("job_sha256"):
            run.mismatches.append(
                "job: traced outputs differ from untraced ones")
        return traced_metrics(run, untraced, traced)
    started = clock()
    job_warm_up(run, grid)
    jobs: List[List[Dict[str, Any]]] = []
    while len(jobs) < JOB_MIN_TIMED or clock() - started < run.args.seconds:
        jobs.append(job_once(run, grid, str(len(jobs)),
                             verified=jobs[0][-1].get("files_sha256")
                             if jobs else None))
    walls = [sum(leg["work_s"] for leg in legs) for legs in jobs]
    run.notes.append(
        f"job: {len(jobs)} jobs of {grid.total} points after an untimed "
        f"warm-up (paused after {grid.pause}, then resumed), "
        f"--workers {JOB_WORKERS}; wall s per job "
        + " ".join(f"{wall:.2f}" for wall in walls))
    # The resume leg validates the stored prefix before any new work.
    resume = statistics.median(legs[1]["first_run_s"] for legs in jobs)
    run.notes.append(
        f"job: resume leg from set-up to its first new point, "
        f"median {resume * 1e3:.1f} ms")
    return {
        "cold_ms": statistics.median(walls) * 1e3,
        "rate_per_s": statistics.median(grid.total / wall for wall in walls),
    }


# -- serve --------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on a loopback port chosen by the kernel,
    run on *cpus*."""

    def __init__(self, run: Run, cache: Path, cpus: set,
                 trace: bool = False):
        self.run = run
        self.trace = trace
        self.report_path = run.dir / f"serve-{len(run.setups)}-{trace}.json"
        argv = ["--cache-dir", str(cache),
                "--workers", "1", "serve", "--host", "127.0.0.1",
                "--port", "0"]
        if trace:
            cmd = [sys.executable, str(HERE / "launch.py"),
                   str(self.report_path), "--trace", "cli"] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        self.log = open(run.dir / f"serve-{clock()}.err", "wb")
        started = clock()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=run.env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log)
        try:
            # Threads the server starts later inherit these CPUs.
            os.sched_setaffinity(self.proc.pid, cpus)
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        LEG_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            self.port = int(line.rsplit(":", 1)[1].split()[0])
            while True:
                try:
                    status, _ = serve_load.get_json("127.0.0.1", self.port,
                                                    "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if clock() - started > LEG_TIMEOUT_S:
                    raise BenchError("server never answered /healthz")
                time.sleep(0.002)
        except BaseException as exc:
            self.stop()
            if isinstance(exc, (ValueError, IndexError, OSError,
                                BenchError)):
                raise BenchError(f"repro serve did not start: {exc}") \
                    from exc
            raise
        self.setup_s = clock() - started
        if not trace:
            run.setups.append(self.setup_s)

    def rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def counters(self) -> Dict[str, float]:
        _, doc = serve_load.get_json("127.0.0.1", self.port, "/metrics")
        totals: Dict[str, float] = {}
        for entry in doc.get("metrics", []):
            if entry.get("type") == "counter":
                totals[entry["name"]] = (totals.get(entry["name"], 0)
                                         + entry["value"])
        return totals

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGTERM, wait, and return the traced launcher's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.trace and self.report_path.is_file():
            return json.loads(self.report_path.read_text())
        return None


def drive(server: Server, mix: inputs.ServeMix, *, capacity: bool,
          base: bool, ladder: bool) -> Dict[str, Any]:
    """The serve phases, in order, against one server.

    1. prime: the hot pool, once, untimed;
    2. warm: hot-pool repeats, one at a time (closed loop);
    3. capacity, if *capacity*: SERVE_CAPACITY_REQUESTS hot-pool repeats
       with SERVE_CAPACITY_DEPTH in flight;
    4. cold: the fixed cold points, one at a time;
    5. compute: the fixed compute points with SERVE_CAPACITY_DEPTH in
       flight;
    6. base, if *base*: open loop at SERVE_BASE_RATE for a third of
       ``--seconds``, at least SERVE_PHASE_REQUESTS requests;
    7. the ladder's rungs, if *ladder*: open loop, each at least
       SERVE_PHASE_REQUESTS requests over at least SERVE_RUNG_MIN_S.
    """
    host, port = "127.0.0.1", server.port

    def schedule(rate: float, count: int):
        return mix.phase(rate, count, round(count * SERVE_FRESH_SHARE),
                         SERVE_DIRECTIVE_SHARE)

    client = serve_load.Client(host, port, SERVE_CONNECTIONS)
    phases: Dict[str, Any] = {"rungs": []}
    try:
        phases["prime"] = client.phase(
            [(0.0, inputs.structured_body(p), p) for p in mix.hot])
        phases["warm"] = serve_load.closed_loop(
            host, port, mix.warm(SERVE_WARM_REQUESTS))
        if capacity:
            phases["capacity"] = client.pipelined(
                mix.warm(SERVE_CAPACITY_REQUESTS), SERVE_CAPACITY_DEPTH)
        phases["cold"] = serve_load.closed_loop(host, port, mix.cold())
        phases["compute"] = client.pipelined(mix.compute(),
                                             SERVE_CAPACITY_DEPTH)
        if base:
            phases["base"] = client.phase(schedule(SERVE_BASE_RATE, max(
                SERVE_PHASE_REQUESTS,
                round(SERVE_BASE_RATE * server.run.args.seconds / 3))))
        if ladder:
            phases["rungs"] = [
                (rate, client.phase(schedule(rate, max(
                    SERVE_PHASE_REQUESTS, round(rate * SERVE_RUNG_MIN_S)))))
                for rate in SERVE_LADDER]
    finally:
        client.close()
    return phases


def answered_per_s(phase: Tuple[float, List[list]]) -> float:
    """Requests answered from the phase start to its last answer, per
    second."""
    start, entries = phase
    done = [r["due"] + r["latency_s"] for r in serve_load.decode(entries)
            if ok(r)]
    span = (max(done) - start) if done else 0.0
    return len(done) / span if span > 0 else 0.0


def rung_verdict(rate: float, phase: Tuple[float, List[list]]
                 ) -> Dict[str, Any]:
    """p99 against the limit, and whether the backlog was growing.

    A failed request counts as missing the limit.  The backlog is the
    number of requests due but unanswered; it grows when, as the last
    request falls due, more than SERVE_BACKLOG_S of arrivals are queued
    and more than halfway through the phase.
    """
    start, entries = phase
    results = serve_load.decode(entries)
    lat = [r["latency_s"] if ok(r) else float("inf") for r in results]
    p99 = inputs.percentile(lat, 99.0)
    dues = [r["due"] for r in results]
    last_due = max(dues)

    def backlog(t: float) -> int:
        return sum(1 for r in results if r["due"] <= t
                   and (r["latency_s"] is None
                        or r["due"] + r["latency_s"] > t))

    end = backlog(last_due)
    growing = (end > rate * SERVE_BACKLOG_S
               and end > backlog(start + (last_due - start) / 2))
    return {
        "rate": rate,
        "count": len(results),
        "p50_s": inputs.percentile(lat, 50.0),
        "p99_s": p99,
        "backlog": end,
        "achieved": answered_per_s(phase),
        "late_p99_s": inputs.percentile([r["late_s"] for r in results], 99.0),
        "pass": p99 <= SERVE_P99_LIMIT_S and not growing,
    }


def ok(result: Dict[str, Any]) -> bool:
    doc = result["doc"]
    return (result["status"] == 200 and doc is not None
            and doc.get("status") == "ok" and not doc.get("degraded"))


def latencies(phase: Tuple[float, List[list]]) -> List[float]:
    """Each request's latency; a failed one counts as infinitely late."""
    return [r["latency_s"] if ok(r) else float("inf")
            for r in serve_load.decode(phase[1])]


def check_serve(run: Run, phases: Dict[str, Any], counters: Dict[str, float]
                ) -> str:
    """Digests, failure counts and the computed-equals-unique check;
    returns a digest of every answer, in order."""
    expected = EXPECTED.get("serve", {})
    results = [r for key in ("prime", "warm", "capacity", "cold", "compute",
                             "base")
               if key in phases
               for r in serve_load.decode(phases[key][1])] + [
        r for _rate, phase in phases["rungs"]
        for r in serve_load.decode(phase[1])]
    sources: Dict[str, int] = {}
    sha = inputs.hashlib.sha256()
    failed = bad = 0
    for r in results:
        if not ok(r):
            failed += 1
            continue
        source = r["doc"].get("source", "?")
        sources[source] = sources.get(source, 0) + 1
        key = inputs.serve_key(r["point"])
        if inputs.digest(r["doc"]["result"]) != expected.get(key):
            bad += 1
        sha.update(key.encode() + b"=" + inputs.digest(
            r["doc"]["result"]).encode() + b"\n")
    unique = len({r["point"] for r in results})
    run.attempted += len(results)
    run.failed += failed
    if bad:
        run.mismatches.append(
            f"serve: {bad} results differ from expected.json")
    computed = int(counters.get("service.computed", -1))
    if sources.get("computed", 0) != unique or computed != unique:
        run.problems.append(
            f"serve: computed {sources.get('computed', 0)} "
            f"(server counter {computed}) != unique points "
            f"{unique}")
    run.notes.append(
        f"serve: sent {len(results)}, ok {len(results) - failed}, "
        f"failed {failed}; by source {dict(sorted(sources.items()))}; "
        f"unique points {unique}")
    return sha.hexdigest()


def run_serve(run: Run) -> Dict[str, float]:
    mix_seed = run.args.seed
    # The client gets a CPU of its own, so the load it generates takes no
    # CPU from the server, which runs on the others.  Set before any
    # client thread starts, so they all inherit it.
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {max(cpus)})
        cpus = cpus - {max(cpus)}
    if run.args.trace:
        out = []
        for trace in (False, True):
            server = Server(run, run.dir / f"cache-{trace}", cpus,
                            trace=trace)
            try:
                phases = drive(server, inputs.ServeMix(mix_seed),
                               capacity=False, base=True, ladder=False)
                counters = server.counters()
            finally:
                report = server.stop()
            checked = check_serve(run, phases, counters)
            out.append((phases, counters, report, checked))
        if out[0][3] != out[1][3]:
            run.mismatches.append(
                "serve: traced outputs differ from untraced ones")
        return serve_traced_metrics(run, out[0], out[1])
    # One server process can answer up to twice as fast as the next, so
    # the cache-hit path, the capacity and the cold points are measured on
    # each of SERVE_SERVERS servers, each with a fresh cache, and medians
    # over the servers are reported.  The last server runs every phase.
    warm_medians = []
    capacities = []
    cold_means = []
    compute_rates = []
    for i in range(SERVE_SERVERS):
        last = i == SERVE_SERVERS - 1
        server = Server(run, run.dir / f"cache-{i}", cpus)
        try:
            phases = drive(server, inputs.ServeMix(mix_seed),
                           capacity=True, base=last, ladder=last)
            counters = server.counters()
            run.rss_kb = max(run.rss_kb, server.rss_kb())
        finally:
            server.stop()
        check_serve(run, phases, counters)
        warm_medians.append(statistics.median(latencies(phases["warm"])))
        capacities.append(answered_per_s(phases["capacity"]))
        compute_rates.append(answered_per_s(phases["compute"]))
        # The mean: the cold points' pricing costs span two orders of
        # magnitude, and their median falls where the spread is widest.
        cold_means.append(statistics.mean(latencies(phases["cold"])))

    cold = latencies(phases["cold"])
    run.notes.append(
        f"serve cold: {len(cold)} fresh float points one at a time on "
        f"each of {SERVE_SERVERS} servers; means (ms) "
        + " ".join(f"{m * 1e3:.2f}" for m in cold_means)
        + f"; on the last server median {statistics.median(cold) * 1e3:.2f}"
        f" ms, max {max(cold) * 1e3:.1f} ms")
    run.notes.append(
        f"serve warm: {SERVE_WARM_REQUESTS} cache hits one at a time "
        f"on each of {SERVE_SERVERS} servers; medians (ms) "
        + " ".join(f"{m * 1e3:.3f}" for m in warm_medians)
        + f"; their median {statistics.median(warm_medians) * 1e3:.3f}")
    run.notes.append(
        f"serve capacity: {SERVE_CAPACITY_REQUESTS} cache hits with "
        f"{SERVE_CAPACITY_DEPTH} in flight; answered per second, per "
        f"server: " + " ".join(f"{c:.1f}" for c in capacities)
        + f"; their median {statistics.median(capacities):.1f}")
    run.notes.append(
        f"serve compute capacity: {len(phases['compute'][1])} fresh float "
        f"points with {SERVE_CAPACITY_DEPTH} in flight; answered per "
        f"second, per server: "
        + " ".join(f"{c:.2f}" for c in compute_rates))
    verdicts = [rung_verdict(SERVE_BASE_RATE, phases["base"])] + [
        rung_verdict(*rung) for rung in phases["rungs"]]
    for v in verdicts:
        run.notes.append(
            f"serve {v['rate']:.0f}/s open loop: {v['count']} "
            f"requests, p50 {v['p50_s'] * 1e3:.2f} ms, p99 "
            f"{v['p99_s'] * 1e3:.1f} ms, backlog {v['backlog']}, "
            f"answered {v['achieved']:.1f}/s, generator late p99 "
            f"{v['late_p99_s'] * 1e3:.2f} ms -> "
            f"{'meets' if v['pass'] else 'misses'} the limit")
    passing = [v["rate"] for v in verdicts if v["pass"]]
    run.notes.append(
        f"serve: highest rung meeting p99 <= "
        f"{SERVE_P99_LIMIT_S * 1e3:.0f} ms without a growing "
        f"backlog: {max(passing) if passing else 'none'}")
    if not verdicts[0]["pass"]:
        run.problems.append(
            f"serve: the base rate misses the p99 limit of "
            f"{SERVE_P99_LIMIT_S * 1e3:.0f} ms")
    return {
        "cold_ms": statistics.median(cold_means) * 1e3,
        # What a server sustains on points that all compute, with a fixed
        # number in flight.
        "rate_per_s": statistics.median(compute_rates),
    }


# -- traced runs --------------------------------------------------------------


def span_metrics(traces: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer counts and self times from the raw spans of *traces*."""
    m = {name: 0.0 for name in PER_LAYER}
    get_hits = replays = fp_misses = 0
    for trace in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        names = {s[0]: s[1] for s in spans}
        for sid, name, _start, _end, parent, tag in spans:
            st = selfs[sid]
            layer = layer_of(name)
            parent_name = names.get(parent)
            if name == "sweep.fingerprint:digest":
                if parent_name != "sweep.fingerprint":
                    continue  # the machine fingerprint, at start-up
                fp_misses += 1
                m["sweep.fingerprint.self_s"] += st
            elif name == "sweep.executor:run":
                m["sweep.executor.points"] += tag
                m["sweep.executor.self_s"] += st
            elif layer == "sweep.executor":
                m["sweep.executor.self_s"] += st
            elif name == "sweep.fingerprint":
                m["sweep.fingerprint.calls"] += 1
                m["sweep.fingerprint.self_s"] += st
            elif name == "result_cache.get":
                m["result_cache.get.calls"] += 1
                get_hits += bool(tag)
                m["result_cache.get.self_s"] += st
            elif name == "result_cache.put":
                m["result_cache.put.calls"] += 1
                m["result_cache.put.self_s"] += st
            elif name == "sim.batch":
                m["sim.batch.points"] += tag
                m["sim.batch.self_s"] += st
            elif name == "gpu.exec_model":
                m["gpu.exec_model.calls"] += 1
                m["gpu.exec_model.self_s"] += st
                replays += parent_name == "sim.batch"
            elif layer == "sweep.shm":
                m["sweep.shm.bytes"] += tag or 0
                m["sweep.shm.self_s"] += st
            elif name == "faults.supervisor":
                m["faults.supervisor.wait_s"] += st
                m["faults.supervisor.restarts"] = max(
                    m["faults.supervisor.restarts"], tag or 0)
            elif name == "jobs.store:append":
                m["jobs.store.append.calls"] += 1
                m["jobs.store.append.self_s"] += st
            elif name == "jobs.store:flush":
                m["jobs.store.flush.self_s"] += st
            elif name == "jobs.store:recover":
                m["jobs.store.recover.records"] += tag or 0
                m["jobs.store.recover.self_s"] += st
            elif name == "jobs.checkpoint":
                m["jobs.checkpoint.calls"] += 1
                m["jobs.checkpoint.self_s"] += st
            elif name == "service.parse":
                m["service.parse.calls"] += 1
                m["service.parse.self_us"] += st * 1e6
            elif layer == "service.admission":
                outcome = tag[0] if isinstance(tag, list) else tag
                m["service.admission.rejected"] += outcome is not None
                if isinstance(tag, list):
                    m["service.admission.depth_max"] = max(
                        m["service.admission.depth_max"], tag[1])
            elif f"{layer}.self_s" in m:
                m[f"{layer}.self_s"] += st
    calls = m["result_cache.get.calls"]
    m["result_cache.get.hit_ratio"] = get_hits / calls if calls else 0.0
    calls = m["sweep.fingerprint.calls"]
    m["sweep.fingerprint.memo_hit_ratio"] = (
        1.0 - fp_misses / calls if calls else 0.0)
    points = m["sim.batch.points"]
    m["sim.batch.value_memo_ratio"] = (
        1.0 - replays / points if points else 0.0)
    if m["service.parse.calls"]:
        m["service.parse.self_us"] /= m["service.parse.calls"]
    return m


def covered_s(report: Dict[str, Any]) -> float:
    """Time inside top-level spans after the program was ready."""
    return sum(end - start for _sid, _n, start, end, parent, _t
               in report["trace"]["spans"]
               if parent < 0 and start >= report["ready"])


def note_breakdown(run: Run, name: str, report: Dict[str, Any]) -> None:
    """One line per traced leg: each layer's self time and its share.

    The functional executor is split by caller, since the slab's replay
    and the co-execution sweep reach it by different entries.
    """
    spans = report["trace"]["spans"]
    selfs = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    totals: Dict[str, float] = {}
    for sid, span_name, _start, _end, parent, _tag in spans:
        layer = layer_of(span_name)
        if layer == "gpu.exec_model":
            layer += "<" + layer_of(names.get(parent, "top"))
        totals[layer] = totals.get(layer, 0.0) + selfs[sid]
    work = report["work_s"]
    parts = ", ".join(f"{layer} {t:.3f}s ({t / work:.0%})" for layer, t in
                      sorted(totals.items(), key=lambda kv: -kv[1])
                      if t >= 0.005 * work)
    run.notes.append(f"traced {name}: {work:.3f}s after set-up: {parts}")


def traced_metrics(run: Run, untraced: List[Dict[str, Any]],
                   traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of a single-process workload (paper or job)."""
    for i, leg in enumerate(traced):
        note_breakdown(run, f"leg {i + 1}", leg)
    m = span_metrics([leg["trace"] for leg in traced])
    e2e = sum(leg["work_s"] for leg in traced)
    covered = sum(covered_s(leg) for leg in traced)
    base = sum(leg["work_s"] for leg in untraced)
    m["trace.e2e_s"] = e2e
    m["trace.other_s"] = e2e - covered
    m["trace.coverage"] = covered / e2e
    m["trace.overhead_frac"] = e2e / base - 1.0
    for key in ("records_sha256", "text_sha256"):
        if [leg.get(key) for leg in untraced] != \
                [leg.get(key) for leg in traced]:
            run.mismatches.append(
                f"traced {key} differs from the untraced run")
    return m


def serve_traced_metrics(run: Run, untraced, traced) -> Dict[str, float]:
    """Per-layer metrics of the served base phase, per request id.

    The program holds a request from the moment it is sent until its
    answer arrives.  That time splits into parse time,
    ``ReductionService.submit`` time, and the rest, which is HTTP: the
    client's socket, the server's framing and JSON.  Inside submit, a
    request that went through the batcher waited from submit start
    until the dispatch that carried it began.  The generator's own
    lateness (due to sent) is not the program's and is reported apart.
    A request whose server spans are missing, or whose spans outlast
    what the client measured, counts as ``other``.
    """
    phases, counters, report, _ = traced
    trace = report["trace"]
    m = span_metrics([trace])
    parse = {s[5]: s[3] - s[2] for s in trace["spans"]
             if s[1] == "service.parse"}
    dispatch_start: Dict[str, float] = {}
    for start, _end, _waiters, ids in trace["dispatches"]:
        for rid in ids:
            dispatch_start.setdefault(rid, start)
    held = late = http = other = 0.0
    waits = []
    served = 0
    for r in serve_load.decode(phases["base"][1]):
        if not ok(r):
            continue
        served += 1
        in_program = r["latency_s"] - r["late_s"]
        held += in_program
        late += r["late_s"]
        rid = r["doc"]["request_id"]
        submit = trace["submits"].get(rid)
        rest = (in_program - (submit[1] - submit[0]) - parse.get(rid, 0.0)
                if submit is not None else -1.0)
        if rest < 0:
            other += in_program
            continue
        http += rest
        if rid in dispatch_start:
            waits.append(dispatch_start[rid] - submit[0])
    dispatches = trace["dispatches"]
    m["service.http.self_ms"] = http / served * 1e3
    m["service.parse.memo_hit_ratio"] = 1.0 - m["service.parse.calls"] / (
        sum(len(phases[k][1])
            for k in ("prime", "warm", "cold", "compute", "base")))
    m["service.batcher.wait_ms"] = (statistics.mean(waits) * 1e3
                                    if waits else 0.0)
    m["service.batcher.waiters_per_batch"] = (
        statistics.mean(d[2] for d in dispatches) if dispatches else 0.0)
    m["service.scheduler.dispatch_ms"] = (
        statistics.mean(d[1] - d[0] for d in dispatches) * 1e3
        if dispatches else 0.0)
    m["service.scheduler.cache_hits"] = counters.get("service.cache_hits", 0)
    m["service.scheduler.coalesced"] = (
        counters.get("service.coalesced", 0)
        + counters.get("service.inflight_joined", 0))
    m["service.scheduler.computed"] = counters.get("service.computed", 0)
    m["service.scheduler.retries"] = counters.get("service.retries", 0)
    m["trace.e2e_s"] = held
    m["trace.other_s"] = other
    m["trace.coverage"] = (held - other) / held
    m["trace.loadgen_late_s"] = late
    plain = [r["latency_s"] - r["late_s"]
             for r in serve_load.decode(untraced[0]["base"][1]) if ok(r)]
    m["trace.overhead_frac"] = (held / served) / statistics.mean(plain) - 1.0
    return m


# -- entry point --------------------------------------------------------------

WORKLOADS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "paper": run_paper,
    "serve": run_serve,
    "job": run_job,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/repro/cli.py", "examples/reproduce_paper.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from the root of a "
                  "checkout of the repository", file=sys.stderr)
            return 2

    # A stopped run still stops its servers and legs (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    try:
        values = WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    if not args.trace:
        values["setup_s"] = statistics.median(run.setups)
        values["peak_rss_mb"] = run.rss_kb / 1024.0
    units = PER_LAYER if args.trace else END_TO_END
    for line in run.notes:
        print(line)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    correct = not run.mismatches
    failed = run.attempted if not correct else run.failed
    print(f"{args.workload} fail_frac = "
          f"{failed / max(1, run.attempted):.6g} ratio "
          f"({failed} of {run.attempted} operations)")
    for text in run.mismatches + run.problems:
        print(f"FAILED: {text}", file=sys.stderr)
    if args.trace and values["trace.coverage"] < MIN_COVERAGE:
        run.problems.append(
            f"traced layers cover {values['trace.coverage']:.1%} "
            f"of end-to-end time (< {MIN_COVERAGE:.0%})")
        print(f"FAILED: {run.problems[-1]}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct and not failed and not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
