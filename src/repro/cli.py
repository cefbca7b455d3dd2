"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``describe``
    Print the simulated system and calibration summary.
``sum``
    Reduce a synthetic workload (choose size/dtype/tuning parameters).
``sweep CASE``
    Regenerate one Figure 1 panel (C1..C4).
``table1``
    Regenerate Table 1 with paper-vs-measured columns.
``coexec CASE``
    Run the Listing 8 co-execution sweep at a chosen allocation site.
``report``
    Run the full shape-check battery (DESIGN.md §3).
``cache``
    Inspect (``stats``/``info``) or ``clear`` the persistent sweep
    result cache — the service's dedupe layer.
``profile``
    Run any command under telemetry and print span/metric summaries
    (``profile run ...``), or render a saved snapshot (``profile view``).
``serve``
    Run the reduction-as-a-service HTTP front end (:mod:`repro.service`):
    ``/simulate``, ``/batch``, ``/healthz``, ``/metrics``.  Off unless
    invoked; see docs/SERVICE.md.
``job``
    Durable streaming-sweep jobs (:mod:`repro.jobs`): ``run`` one in
    this process (blocking, resumable), or ``submit``/``status``/
    ``watch``/``cancel``/``resume`` against a ``serve --jobs-dir``
    instance's ``/jobs`` API.  See docs/JOBS.md.
``loadtest``
    Drive a service (an in-process one by default, or ``--url``) with
    overlapping Fig.-1 sweep points and report latency percentiles.
``chaos``
    Storm a service (in-process or ``--url``) under a seeded fault plan
    and assert the resilience invariants: zero silently wrong results,
    bounded error rate, recovery within the SLO.  See
    docs/RESILIENCE.md.
``slo check``
    Probe a live service's ``/health`` endpoint and report the SLO
    verdict (exit 0 healthy, 1 violating, 2 unreachable).
``obs blackbox``
    Pretty-print a crash flight-recorder dump produced under
    ``serve --flight-dir``.  See docs/OBSERVABILITY.md.

Sweeps run through the :mod:`repro.sweep` executor: ``--workers N`` sizes
the process pool that co-execution sweeps and runs with a task timeout
use (default from ``REPRO_SWEEP_WORKERS``, else serial; ``gpu_point``s
are otherwise priced in-process), results persist in a JSON cache under
``--cache-dir`` (default ``REPRO_CACHE_DIR``, else
``~/.cache/repro-sweep``) so re-runs skip already-computed points, and
``--no-cache`` bypasses the cache entirely.  ``--stats`` prints the
executor's per-stage instrumentation.

Observability: ``--trace-out FILE`` on ``sum``/``sweep``/``table1``/
``coexec``/``report`` switches on the :mod:`repro.telemetry` layer and
writes a Chrome-trace JSON timeline (open in ``ui.perfetto.dev``) with
wall-clock spans from every subsystem plus the simulated device lanes —
see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional, Sequence

import numpy as np

from . import __version__
from .core.cases import case_by_name
from .core.coexec import AllocationSite
from .core.machine import Machine
from .core.optimized import KernelConfig
from .core.reduce import offload_sum
from .dtypes import scalar_type
from .errors import ReproError
from .evaluation.figures import (
    generate_figure1,
    paper_optimized_config,
    render_figure1,
)
from .evaluation.report import full_report
from .evaluation.tables import generate_table1, render_table1
from .sweep.executor import CoexecRequest, SweepExecutor
from .sweep.result_cache import ResultCache, open_result_cache
from .telemetry import (
    MetricsRegistry,
    Span,
    configure as configure_telemetry,
    get_telemetry,
    publish_counts,
    render_flame,
    render_summary,
    span as tele_span,
    write_chrome_trace,
    write_snapshot,
)
from .util.tables import AsciiTable
from .util.units import format_bandwidth, format_time

__all__ = ["main", "build_parser"]


def _add_service_knobs(p: argparse.ArgumentParser) -> None:
    """Deployment knobs shared by ``serve`` and ``loadtest``."""
    p.add_argument("--max-queue", type=int, default=256,
                   help="admission queue bound (beyond it: 429 queue_full)")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="requests/second per client_id (default: unlimited)")
    p.add_argument("--burst", type=int, default=None,
                   help="rate-limit burst capacity (default: rate-limit)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="micro-batch size cap")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   help="micro-batch coalescing window (milliseconds)")
    p.add_argument("--default-timeout", type=float, default=30.0,
                   help="deadline for requests that do not set timeout_s")
    p.add_argument("--no-degrade", action="store_true",
                   help="disable graceful degradation (breaker-open / "
                        "queue-full compute requests get 429/500 instead "
                        "of an analytic 'degraded: true' answer)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive compute failures that open the "
                        "circuit breaker")
    p.add_argument("--breaker-cooldown", type=float, default=2.0,
                   help="seconds the breaker stays open before half-open "
                        "probes")
    p.add_argument("--trace-sample", type=float, default=0.0,
                   help="fraction of requests traced end to end "
                        "(0 disables tracing, 1.0 traces everything; "
                        "sampling is deterministic per request "
                        "fingerprint — see docs/OBSERVABILITY.md)")
    p.add_argument("--metrics-interval", type=float, default=0.0,
                   help="seconds between metric snapshots into the "
                        "in-memory time-series ring that backs /health "
                        "and SLO evaluation (0 disables the ring)")
    p.add_argument("--slo", metavar="SPEC", default=None,
                   help="SLO objectives as a JSON file path or inline "
                        "JSON (implies --metrics-interval 1 when the "
                        "ring is off; omitted = built-in objectives)")
    p.add_argument("--flight-dir", metavar="DIR", default=None,
                   help="enable the crash flight recorder: black-box "
                        "dumps land in DIR on worker crash, breaker "
                        "open, chaos violation or SIGTERM (exported as "
                        "REPRO_FLIGHT_DIR to shards and pool workers)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sum reduction with OpenMP offload on a simulated "
                    "Grace-Hopper system (SC 2024 reproduction).",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--functional-cap", type=int, metavar="N", default=None,
        help="cap the functionally-executed elements per workload "
             "(performance numbers are unaffected; speeds up big runs)",
    )
    parser.add_argument(
        "--workers", metavar="N", default=None,
        help="sweep executor pool width (int, or 'auto' for one per CPU; "
             "default: REPRO_SWEEP_WORKERS, else serial); the pool serves "
             "co-execution sweeps and runs with a task timeout, and "
             "gpu_points are otherwise priced in-process",
    )
    parser.add_argument(
        "--task-timeout", metavar="SECONDS", default=None,
        help="per-point wall-clock budget for sweep tasks; a point over "
             "budget is recorded as failed instead of aborting the sweep "
             "(default: REPRO_SWEEP_TIMEOUT, else off; <= 0 turns it off)",
    )
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="activate deterministic fault injection, e.g. "
             "'seed=7;worker.task:crash@0.1;cache.get:corrupt@0.05' "
             "(default: REPRO_FAULTS, else off; see docs/RESILIENCE.md)",
    )
    parser.add_argument(
        "--machine-profile", metavar="NAME", default=None,
        help="named hardware profile to simulate: gh200 (the calibrated "
             "paper testbed, default), v100, or a100 (PCIe comparison "
             "nodes; see docs/EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent sweep result cache (recompute "
             "every point)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="sweep result cache directory (default: REPRO_CACHE_DIR, "
             "else ~/.cache/repro-sweep)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print sweep executor instrumentation after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_out(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out", metavar="FILE", default=None,
            help="enable telemetry and write a Chrome-trace JSON timeline "
                 "to FILE (open in ui.perfetto.dev)",
        )

    sub.add_parser("describe", help="print the simulated system")

    p_sum = sub.add_parser("sum", help="offload a synthetic sum reduction")
    p_sum.add_argument("--elements", type=int, default=1 << 24)
    p_sum.add_argument("--dtype", default="int32",
                       choices=["int8", "int32", "float32", "float64"])
    p_sum.add_argument("--teams", type=int, default=None,
                       help="explicit team count (omit for the baseline)")
    p_sum.add_argument("--v", type=int, default=1,
                       help="elements accumulated per loop iteration")
    p_sum.add_argument("--threads", type=int, default=256)
    p_sum.add_argument("--seed", type=int, default=0)
    p_sum.add_argument("--op", default="+",
                       choices=["+", "min", "max", "argmax", "dot"],
                       help="reduction identifier (dot derives its second "
                            "operand from --seed; argmax reports the "
                            "first index of the maximum)")
    add_trace_out(p_sum)

    p_sweep = sub.add_parser("sweep", help="regenerate a Figure 1 panel")
    p_sweep.add_argument("case", choices=["C1", "C2", "C3", "C4"])
    p_sweep.add_argument("--trials", type=int, default=200)
    add_trace_out(p_sweep)

    p_t1 = sub.add_parser("table1", help="regenerate Table 1")
    p_t1.add_argument("--trials", type=int, default=200)
    add_trace_out(p_t1)

    p_co = sub.add_parser("coexec", help="run the co-execution p sweep")
    p_co.add_argument("case", choices=["C1", "C2", "C3", "C4"])
    p_co.add_argument("--site", choices=["A1", "A2"], default="A1")
    p_co.add_argument("--baseline", action="store_true",
                      help="co-run the baseline kernel (default: optimized)")
    p_co.add_argument("--no-unified-memory", action="store_true",
                      help="explicit map copies instead of UM")
    p_co.add_argument("--trials", type=int, default=200)
    add_trace_out(p_co)

    p_rep = sub.add_parser("report", help="run the shape-check battery")
    p_rep.add_argument("--trials", type=int, default=200)
    p_rep.add_argument("--out", metavar="FILE", default=None,
                       help="also write the full markdown report to FILE")
    add_trace_out(p_rep)

    p_cache = sub.add_parser("cache", help="inspect or clear the sweep cache")
    p_cache.add_argument("action", choices=["info", "stats", "clear"],
                         help="'stats' (alias 'info') prints entry count "
                              "and hit/miss/store/eviction counters; "
                              "'clear' wipes the directory")

    p_serve = sub.add_parser(
        "serve",
        help="serve reduction simulations over HTTP (repro.service)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8077,
                         help="TCP port (0 picks an ephemeral port)")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="serving processes sharing the port via "
                              "SO_REUSEPORT (POSIX; they share the "
                              "persistent result cache, so read-through "
                              "dedupe stays global)")
    p_serve.add_argument("--jobs-dir", metavar="DIR", default=None,
                         help="enable the durable-jobs API (/jobs): job "
                              "directories, shards and checkpoints live "
                              "under DIR (default: REPRO_JOBS_DIR, else "
                              "jobs are disabled)")
    p_serve.add_argument("--jobs-max-running", type=int, default=1,
                         help="background jobs run concurrently by the "
                              "in-service manager (the rest queue FIFO)")
    _add_service_knobs(p_serve)

    p_node = sub.add_parser(
        "node",
        help="run a cluster worker node: the full service stack plus "
             "registration and heartbeats against a coordinator "
             "(see docs/CLUSTER.md)",
    )
    p_node.add_argument("--coordinator", metavar="URL", required=True,
                        help="coordinator base URL, e.g. http://host:8078")
    p_node.add_argument("--host", default="127.0.0.1")
    p_node.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0: ephemeral; the node "
                             "reports its bound address when joining)")
    p_node.add_argument("--node-id", default=None,
                        help="stable identity to rejoin under (default: "
                             "the coordinator mints one)")
    p_node.add_argument("--quiet", action="store_true",
                        help="suppress the startup line")
    _add_service_knobs(p_node)

    p_coord = sub.add_parser(
        "coordinator",
        help="run the cluster coordinator: heartbeat membership, "
             "consistent-hash request routing with hedged retry, and "
             "cross-node durable jobs (see docs/CLUSTER.md)",
    )
    p_coord.add_argument("--host", default="127.0.0.1")
    p_coord.add_argument("--port", type=int, default=8078,
                         help="TCP port (0 picks an ephemeral port)")
    p_coord.add_argument("--lease", type=float, default=3.0,
                         help="heartbeat lease seconds (a node idle "
                              "longer turns SUSPECT)")
    p_coord.add_argument("--grace", type=float, default=6.0,
                         help="extra SUSPECT seconds before a node is "
                              "DEAD, removed from the ring, and its "
                              "in-flight chunks re-assigned")
    p_coord.add_argument("--vnodes", type=int, default=64,
                         help="virtual nodes per member on the hash ring")
    p_coord.add_argument("--max-attempts", type=int, default=3,
                         help="distinct nodes tried per request or chunk")
    p_coord.add_argument("--hedge-delay", type=float, default=None,
                         help="seconds before a slow /simulate forward "
                              "races the next candidate (default: off)")
    p_coord.add_argument("--retry-backoff", type=float, default=0.05,
                         help="base seconds of exponential backoff: the "
                              "k-th retry waits min(1, base * 2**(k-1))")
    p_coord.add_argument("--forward-timeout", type=float, default=30.0,
                         help="per-forward HTTP timeout (seconds)")
    p_coord.add_argument("--no-degrade", action="store_true",
                         help="when the whole ring is unavailable, "
                              "return 503 instead of the analytic "
                              "degraded answer")
    p_coord.add_argument("--breaker-threshold", type=int, default=3,
                         help="consecutive forward failures that open a "
                              "node's circuit breaker")
    p_coord.add_argument("--breaker-cooldown", type=float, default=2.0,
                         help="seconds a node's breaker stays open "
                              "before half-open probes")
    p_coord.add_argument("--default-timeout", type=float, default=30.0,
                         help="deadline for requests without timeout_s")
    p_coord.add_argument("--any-machine", action="store_true",
                         help="accept nodes whose machine fingerprint "
                              "differs from the coordinator's (results "
                              "are then no longer byte-reproducible)")
    p_coord.add_argument("--jobs-dir", metavar="DIR", default=None,
                         help="enable the durable-jobs API; job chunks "
                              "fan out over the ring (default: "
                              "REPRO_JOBS_DIR, else jobs are disabled)")
    p_coord.add_argument("--jobs-max-running", type=int, default=1,
                         help="cluster jobs run concurrently")
    p_coord.add_argument("--flight-dir", metavar="DIR", default=None,
                         help="enable the crash flight recorder (dumps "
                              "on node loss and SIGTERM)")
    p_coord.add_argument("--quiet", action="store_true",
                         help="suppress the startup line")

    p_load = sub.add_parser(
        "loadtest",
        help="replay overlapping sweep points against a service and "
             "report latency percentiles",
    )
    p_load.add_argument("--url", default=None,
                        help="target service URL (default: start an "
                             "in-process server and drive that)")
    p_load.add_argument("--clients", type=int, default=20,
                        help="concurrent keep-alive client connections")
    p_load.add_argument("--requests", type=int, default=200,
                        help="total requests across all clients")
    p_load.add_argument("--preset", choices=["small", "fig1"],
                        default="small",
                        help="request mix: 'small' (CI-sized points) or "
                             "'fig1' (the paper's C1 grid)")
    p_load.add_argument("--unique-points", type=int, default=12,
                        help="distinct sweep points in the replay pool "
                             "(smaller = more duplicate fingerprints)")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--timeout", type=float, default=30.0,
                        help="per-request client timeout (seconds)")
    p_load.add_argument("--warmup", type=int, default=0,
                        help="unrecorded warmup requests per client "
                             "(excludes the connect storm from "
                             "steady-state percentiles)")
    p_load.add_argument("--out", metavar="FILE", default=None,
                        help="write the full report (latency histogram "
                             "JSON) to FILE")
    _add_service_knobs(p_load)

    p_chaos = sub.add_parser(
        "chaos",
        help="storm a service under a seeded fault plan and assert the "
             "resilience invariants (exit 1 on any violation)",
    )
    p_chaos.add_argument("--scenario",
                         choices=["service", "job-kill", "node-kill"],
                         default="service",
                         help="'service': storm a live service; "
                              "'job-kill': SIGKILL-shape real job-runner "
                              "subprocesses mid-sweep, resume, and "
                              "require zero wrong/duplicated points and "
                              "a byte-identical result (see docs/JOBS.md); "
                              "'node-kill': SIGKILL a live cluster worker "
                              "node mid-storm and mid-job and require "
                              "loss detection, zero wrong results and a "
                              "byte-identical job (see docs/CLUSTER.md)")
    p_chaos.add_argument("--job-kills", type=int, default=3,
                         help="runner processes to kill in the job-kill "
                              "scenario")
    p_chaos.add_argument("--nodes", type=int, default=3,
                         help="worker nodes to start in the node-kill "
                              "scenario (one of them dies)")
    p_chaos.add_argument("--url", default=None,
                         help="target service URL (default: start an "
                              "in-process server — over a throwaway "
                              "cache directory — and storm that; give "
                              "the server its faults via REPRO_FAULTS "
                              "or --faults)")
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="seed for client scheduling and the "
                              "client-side fault plan")
    p_chaos.add_argument("--duration", type=float, default=20.0,
                         help="storm length (seconds)")
    p_chaos.add_argument("--clients", type=int, default=8,
                         help="concurrent storm clients")
    p_chaos.add_argument("--unique-points", type=int, default=6,
                         help="distinct sweep points in the storm pool "
                              "(ground truth is precomputed per point)")
    p_chaos.add_argument("--preset", choices=["small", "fig1"],
                         default="small",
                         help="request pool (see loadtest)")
    p_chaos.add_argument("--client-faults", metavar="SPEC", default=None,
                         help="client-side sabotage plan on point "
                              "'chaos.client' (modes: disconnect, "
                              "slowloris, malformed), e.g. "
                              "'chaos.client:disconnect@0.05'")
    p_chaos.add_argument("--error-budget", type=float, default=0.01,
                         help="max tolerated clean error+drop rate")
    p_chaos.add_argument("--recovery-slo", type=float, default=10.0,
                         help="seconds after the storm within which a "
                              "full clean pass must succeed")
    p_chaos.add_argument("--request-timeout", type=float, default=30.0,
                         help="per-request client timeout (seconds)")
    p_chaos.add_argument("--out", metavar="FILE", default=None,
                         help="write the chaos report JSON to FILE")
    _add_service_knobs(p_chaos)

    p_verify = sub.add_parser(
        "verify",
        help="differential conformance fuzzing, golden corpus and the "
             "perf-regression gate (see docs/VERIFICATION.md)",
    )
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)

    def add_fuzz_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42,
                       help="case-generator seed (a seed reproduces the "
                            "identical case list byte for byte)")
        p.add_argument("--cases", type=int, default=200,
                       help="number of cases to generate")
        p.add_argument("--kinds", default=None,
                       help="comma-separated case kinds to run "
                            "(exec,directive,reject,sweep-cache,coexec,"
                            "service,jobs-resume); default: all")
        p.add_argument("--time-budget", type=float, default=None,
                       metavar="SECONDS",
                       help="stop after this much wall time (the case "
                            "list is still generated in full, so the "
                            "digest stays seed-stable)")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the fuzz report JSON (including any "
                            "divergence records) to FILE")

    p_vfuzz = verify_sub.add_parser(
        "fuzz",
        help="run seeded fuzz cases through the differential oracles "
             "(exit 1 on any divergence)",
    )
    add_fuzz_args(p_vfuzz)
    p_vdiff = verify_sub.add_parser(
        "diff",
        help="alias of fuzz (differential check of a seeded case list)",
    )
    add_fuzz_args(p_vdiff)

    p_vgold = verify_sub.add_parser(
        "golden",
        help="recompute the golden corpus and compare against "
             "tests/golden/ (exit 1 on drift)",
    )
    p_vgold.add_argument("--entries", default=None,
                         help="comma-separated entry names (default: all)")
    p_vgold.add_argument("--golden-dir", metavar="DIR", default=None,
                         help="corpus directory (default: tests/golden/)")

    p_vbless = verify_sub.add_parser(
        "bless",
        help="regenerate the golden corpus files after an intentional "
             "model change (review the diff before committing)",
    )
    p_vbless.add_argument("--entries", default=None,
                          help="comma-separated entry names (default: all)")
    p_vbless.add_argument("--golden-dir", metavar="DIR", default=None,
                          help="corpus directory (default: tests/golden/)")

    p_vperf = verify_sub.add_parser(
        "perf",
        help="time the hot paths, write BENCH_verify.json and gate "
             "against the committed baseline (exit 1 on regression)",
    )
    p_vperf.add_argument("--out", metavar="FILE", default="BENCH_verify.json",
                         help="where to write the current numbers "
                              "(default: ./BENCH_verify.json)")
    p_vperf.add_argument("--baseline", metavar="FILE", default=None,
                         help="baseline to gate against (default: the "
                              "committed BENCH_verify.json at the repo "
                              "root; 'none' skips the gate)")
    p_vperf.add_argument("--threshold", type=float, default=None,
                         help="regression ratio that fails the gate "
                              "(default: 4.0)")
    p_vperf.add_argument("--repeats", type=int, default=3,
                         help="repeats per benchmark (best is reported)")
    p_vperf.add_argument("--update-baseline", action="store_true",
                         help="also overwrite the committed baseline with "
                              "the current numbers")

    p_job = sub.add_parser(
        "job",
        help="durable streaming-sweep jobs: run one locally, or drive a "
             "server's /jobs lifecycle API (see docs/JOBS.md)",
    )
    job_sub = p_job.add_subparsers(dest="job_command", required=True)

    def add_job_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", metavar="FILE", default=None,
                       help="job spec as a JSON document file ('-' reads "
                            "stdin); overrides the grid flags below")
        p.add_argument("--case", choices=["C1", "C2", "C3", "C4"],
                       default="C1")
        p.add_argument("--teams", default="4096", metavar="LIST",
                       help="comma-separated team counts (powers of two)")
        p.add_argument("--v", default="4", metavar="LIST",
                       help="comma-separated v values (powers of two)")
        p.add_argument("--threads", default="256", metavar="LIST",
                       help="comma-separated thread counts")
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--verify", action="store_true",
                       help="functionally verify every point")
        p.add_argument("--checkpoint-interval", type=int, default=1024,
                       help="points between durable checkpoints (a crash "
                            "loses at most one interval)")
        p.add_argument("--shard-records", type=int, default=8192,
                       help="records per JSONL result shard")
        p.add_argument("--label", default="",
                       help="free-form label carried in the job status")
        p.add_argument("--archive", action="store_true",
                       help="pack a content-addressed archive on DONE")

    def add_job_url(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default="http://127.0.0.1:8077",
                       help="service base URL (a `repro serve --jobs-dir` "
                            "instance)")
        p.add_argument("--timeout", type=float, default=30.0,
                       help="per-request HTTP timeout (seconds)")

    p_jrun = job_sub.add_parser(
        "run",
        help="run (or resume) one job in this process, blocking until "
             "DONE — no server needed",
    )
    add_job_spec_args(p_jrun)
    p_jrun.add_argument("--dir", metavar="DIR", default=None,
                        help="job directory (default: <jobs root>/<job "
                             "id>, root from REPRO_JOBS_DIR else "
                             "~/.cache/repro-jobs)")
    p_jrun.add_argument("--resume", action="store_true",
                        help="load the spec from DIR/spec.json (grid "
                             "flags ignored); requires --dir")
    p_jrun.add_argument("--max-points", type=int, default=None,
                        help="pause cleanly (state CHECKPOINTED) after "
                             "this many newly-resolved points")
    p_jrun.add_argument("--fsync", action="store_true",
                        help="fsync every checkpoint (survives machine "
                             "crash, not just process crash; slower)")
    p_jrun.add_argument("--quiet", action="store_true",
                        help="suppress per-checkpoint progress lines")

    p_jsubmit = job_sub.add_parser(
        "submit", help="POST the spec to a server's /jobs (idempotent)"
    )
    add_job_spec_args(p_jsubmit)
    add_job_url(p_jsubmit)

    p_jstatus = job_sub.add_parser(
        "status", help="one job's status, or every known job without ID"
    )
    p_jstatus.add_argument("id", nargs="?", default=None)
    add_job_url(p_jstatus)

    p_jwatch = job_sub.add_parser(
        "watch",
        help="poll a job until it reaches a terminal state, optionally "
             "streaming its results",
    )
    p_jwatch.add_argument("id")
    p_jwatch.add_argument("--interval", type=float, default=1.0,
                          help="poll interval (seconds)")
    p_jwatch.add_argument("--stream-out", metavar="FILE", default=None,
                          help="follow the durable JSONL results into "
                               "FILE ('-' = stdout)")
    add_job_url(p_jwatch)

    p_jcancel = job_sub.add_parser(
        "cancel",
        help="cancel (running jobs stop at their next checkpoint and "
             "stay resumable)",
    )
    p_jcancel.add_argument("id")
    add_job_url(p_jcancel)

    p_jresume = job_sub.add_parser(
        "resume", help="requeue an interrupted/cancelled/failed job"
    )
    p_jresume.add_argument("id")
    add_job_url(p_jresume)

    p_slo = sub.add_parser(
        "slo",
        help="evaluate service-level objectives against a live service",
    )
    slo_sub = p_slo.add_subparsers(dest="slo_command", required=True)
    p_slo_check = slo_sub.add_parser(
        "check",
        help="GET /health and report the SLO verdict (exit 0 healthy, "
             "1 violating, 2 unreachable)",
    )
    p_slo_check.add_argument("--url", default="http://127.0.0.1:8077",
                             help="service base URL")
    p_slo_check.add_argument("--timeout", type=float, default=10.0,
                             help="HTTP timeout (seconds)")
    p_slo_check.add_argument("--out", metavar="FILE", default=None,
                             help="write the full health report JSON "
                                  "to FILE")

    p_obs = sub.add_parser(
        "obs",
        help="observability tooling (flight-recorder dumps)",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_black = obs_sub.add_parser(
        "blackbox",
        help="pretty-print a flight-recorder dump "
             "(flight-*.json from --flight-dir)",
    )
    p_black.add_argument("file", help="flight dump JSON file")
    p_black.add_argument("--window", type=float, default=None,
                         metavar="SECONDS",
                         help="only show events from the last SECONDS "
                              "before the dump")

    p_prof = sub.add_parser(
        "profile",
        help="profile a command (spans, metrics, timeline) or view a "
             "saved snapshot",
    )
    prof_sub = p_prof.add_subparsers(dest="profile_command", required=True)
    p_prun = prof_sub.add_parser(
        "run",
        help="run any repro command under telemetry and print the "
             "span/metric summary",
    )
    p_prun.add_argument("--flame", action="store_true",
                        help="also print the ASCII call-tree (flame) view")
    add_trace_out(p_prun)
    p_prun.add_argument("--snapshot-out", metavar="FILE", default=None,
                        help="write the full telemetry snapshot (spans + "
                             "metrics + sim trace) as plain JSON to FILE")
    p_prun.add_argument("rest", nargs=argparse.REMAINDER,
                        metavar="command ...",
                        help="the repro command to profile, with its "
                             "arguments")
    p_pview = prof_sub.add_parser(
        "view", help="render a saved telemetry snapshot (ASCII summary)"
    )
    p_pview.add_argument("file", help="snapshot JSON from profile run "
                                      "--snapshot-out")
    p_pview.add_argument("--flame", action="store_true",
                         help="also print the ASCII call-tree (flame) view")
    return parser


def _cmd_describe(args, machine: Machine, executor) -> int:
    print(machine.describe())
    print(f"peak GPU bandwidth: "
          f"{format_bandwidth(machine.system.peak_gpu_bandwidth_gbs)}")
    print(f"UM page size: {machine.system.page_bytes} bytes")
    print(f"fault migration: "
          f"{format_bandwidth(machine.link.migration_gbs)}; "
          f"C2C remote reads: "
          f"{format_bandwidth(machine.link.remote_read_gbs)}")
    return 0


def _cmd_sum(args, machine: Machine, executor) -> int:
    st = scalar_type(args.dtype)

    def draw(rng):
        if st.is_integer:
            return rng.integers(-100, 100, size=args.elements).astype(st.numpy)
        return rng.random(args.elements).astype(st.numpy)

    data = draw(np.random.default_rng(args.seed))
    second = None
    if args.op == "dot":
        # Same seed decorrelation as Machine.workload_pair.
        second = draw(np.random.default_rng(args.seed ^ 0x9E3779B9))
    result = offload_sum(
        data, teams=args.teams, v=args.v, threads=args.threads,
        machine=machine, identifier=args.op,
        result_type="int64" if args.op == "argmax" else None,
        second=second,
    )
    geo = result.kernel.geometry
    label = "sum" if args.op == "+" else args.op
    print(f"{label:<10} = {result.value}")
    print(f"geometry   = grid {geo.grid} x block {geo.block} "
          f"(v={result.kernel.elements_per_iteration})")
    print(f"kernel     = {format_time(result.seconds)}")
    print(f"bandwidth  = {format_bandwidth(result.bandwidth_gbs)}")
    return 0


def _cmd_sweep(args, machine: Machine, executor) -> int:
    case = case_by_name(args.case)
    fig = generate_figure1(machine, case, trials=args.trials,
                           executor=executor)
    print(render_figure1(fig))
    return 0


def _cmd_table1(args, machine: Machine, executor) -> int:
    print(render_table1(generate_table1(machine, trials=args.trials,
                                        executor=executor)))
    return 0


def _cmd_coexec(args, machine: Machine, executor) -> int:
    case = case_by_name(args.case)
    config = None if args.baseline else paper_optimized_config(case)
    (sweep,) = executor.coexec_sweeps(
        [
            CoexecRequest(
                case=case,
                site=AllocationSite(args.site),
                config=config,
                trials=args.trials,
                verify=False,
                unified_memory=not args.no_unified_memory,
            )
        ],
        stage=f"coexec-{args.site}",
    )
    table = AsciiTable(["p"] + [f"{p:.1f}" for p, _ in sweep.series()],
                       float_format="{:.0f}")
    table.add_row(["GB/s"] + [bw for _, bw in sweep.series()])
    print(table.render())
    best = sweep.best()
    print(f"best: p={best.cpu_part:.1f} -> "
          f"{format_bandwidth(best.bandwidth_gbs)} "
          f"(x{best.bandwidth_gbs / sweep.gpu_only.bandwidth_gbs:.3f} over "
          f"GPU-only)")
    return 0


def _cmd_report(args, machine: Machine, executor) -> int:
    text = full_report(machine, trials=args.trials, executor=executor)
    print(text)
    if args.out:
        from .evaluation.markdown import write_report

        path = write_report(args.out, machine, trials=args.trials,
                            executor=executor)
        print(f"markdown report written to {path}")
    return 0 if "FAIL" not in text else 1


def _cmd_cache(args, machine: Machine, executor) -> int:
    cache = executor.cache or ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.directory}")
    else:
        print(cache.describe())
    return 0


def _service_settings(args):
    import os

    from .service import ServiceSettings

    # --slo without an explicit ring interval still needs frames to
    # evaluate against, so it implies a one-second snapshot cadence.
    tsdb_interval_s = args.metrics_interval
    if args.slo and tsdb_interval_s <= 0:
        tsdb_interval_s = 1.0
    # Only `serve` exposes the jobs knobs; loadtest/chaos share the rest.
    jobs_dir = getattr(args, "jobs_dir", None) or os.environ.get(
        "REPRO_JOBS_DIR"
    )
    return ServiceSettings(
        jobs_dir=jobs_dir,
        jobs_max_running=getattr(args, "jobs_max_running", 1),
        max_queue=args.max_queue,
        rate_limit=args.rate_limit,
        burst=args.burst,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_ms / 1e3,
        default_timeout_s=args.default_timeout,
        degrade=not args.no_degrade,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        trace_sample=args.trace_sample,
        tsdb_interval_s=tsdb_interval_s,
        slo_config=args.slo,
    )


def _configure_observability(args) -> None:
    """Apply the shared obs knobs before any service (or shard) starts.

    Both switches export their state to the environment, so forked
    shards and spawned pool workers inherit them.
    """
    if getattr(args, "trace_sample", 0) > 0:
        configure_telemetry(enabled=True)
    if args.flight_dir:
        from .obs import configure_flight

        configure_flight(args.flight_dir)


def _serve_until_sigterm(
    server, role: str, label: str, details: str, quiet: bool,
    agent: Any = None,
) -> int:
    """Serve until SIGTERM or Ctrl-C, then stop; returns exit code 0.

    The banner reads ``<label> listening on http://HOST:PORT<details>``.
    SIGTERM is the black-box moment for an orderly kill: the flight
    ring is recorded and dumped with ``role`` (and a node's id) before
    the server stops.  A node's *agent* starts once the server is bound
    and stops before it.
    """
    import asyncio
    import os
    import signal

    from .obs.flight import flight

    async def _run() -> None:
        host, port = await server.start()
        if agent is not None:
            agent.start()
        serve_task = asyncio.ensure_future(server.serve_forever())

        def _on_term() -> None:
            fields = {} if agent is None else {"node_id": agent.node_id or ""}
            recorder = flight()
            recorder.record(role, "sigterm", pid=os.getpid(), host=host,
                            port=port, **fields)
            recorder.dump("sigterm", role=role, **fields)
            serve_task.cancel()

        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, _on_term)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-POSIX loop or non-main thread: Ctrl-C still works
        # The banner comes last: once it is out, SIGTERM is handled.
        if not quiet:
            print(f"{label} listening on http://{host}:{port}{details}",
                  flush=True)
        try:
            await serve_task
        except asyncio.CancelledError:
            pass
        finally:
            try:
                loop.remove_signal_handler(signal.SIGTERM)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
            if agent is not None:
                await agent.stop()
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        if not quiet:
            print("shutting down")
    return 0


def _serve_one(
    args, machine: Machine, executor, host, port,
    reuse_port: bool = False, quiet: bool = False,
) -> int:
    from .service import ReductionService, ServiceHTTPServer

    service = ReductionService(
        machine, executor=executor, settings=_service_settings(args)
    )
    server = ServiceHTTPServer(service, host, port, reuse_port=reuse_port)
    return _serve_until_sigterm(
        server, "shard", "repro service",
        f" (workers={executor.workers}, "
        f"cache={'on' if executor.cache else 'off'}; Ctrl-C stops)",
        quiet,
    )


def _latest_flight_dump(pid: int) -> Optional[str]:
    """The newest flight-recorder dump PID wrote, if the recorder is on.

    Shards dump on SIGTERM and on crash-shaped deaths; pointing at the
    file from the supervisor's reap log turns "shard 2 died" into an
    immediately openable black box (``repro obs blackbox <path>``).
    """
    import glob
    import os

    directory = os.environ.get("REPRO_FLIGHT_DIR")
    if not directory:
        return None
    paths = glob.glob(os.path.join(directory, f"flight-{pid}-*.json"))
    if not paths:
        return None
    return max(paths, key=lambda p: os.path.getmtime(p))


#: A shard that lived at least this long resets its failure streak.
SHARD_STABLE_S = 30.0

#: Consecutive fast failures before a shard slot is given up on.
SHARD_MAX_FAST_FAILURES = 5


def _serve_sharded(args, machine: Machine, executor) -> int:
    """``repro serve --shards N``: fork N shards and *supervise* them.

    A shard that dies (crash, OOM kill, unhandled exception) is reaped
    and restarted with exponential backoff; a slot that keeps dying
    immediately (``SHARD_MAX_FAST_FAILURES`` times in a row, each
    within ``SHARD_STABLE_S``) is abandoned so a broken configuration
    cannot fork-bomb the host.  Restarts are printed and counted.
    """
    import os
    import signal
    import socket
    import time as _time

    if not hasattr(socket, "SO_REUSEPORT") or not hasattr(os, "fork"):
        print("error: --shards > 1 needs SO_REUSEPORT and fork (POSIX)",
              file=sys.stderr)
        return 2
    # Reserve the port before forking (resolves --port 0) so every shard
    # binds the same number; the placeholder never listens, so the
    # kernel only balances connections across the shard listeners.
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    placeholder.bind((args.host, args.port))
    host, port = placeholder.getsockname()[:2]

    def _spawn_shard() -> int:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                placeholder.close()
                code = _serve_one(
                    args, machine, executor, host, port,
                    reuse_port=True, quiet=True,
                )
            finally:
                # os._exit skips atexit, which is what would otherwise
                # stop this shard's pool workers.
                executor.close()
                os._exit(code)
        return pid

    slots = {}  # pid -> slot index
    started_at = {}  # slot -> monotonic start time
    fast_failures = [0] * args.shards
    restarts = 0
    for slot in range(args.shards):
        pid = _spawn_shard()
        slots[pid] = slot
        started_at[slot] = _time.monotonic()
    print(f"repro service listening on http://{host}:{port} "
          f"({args.shards} shards, workers={executor.workers}/shard, "
          f"cache={'on' if executor.cache else 'off'}; Ctrl-C stops)",
          flush=True)

    terminating = False

    def _forward(_signum, _frame):
        nonlocal terminating
        if not terminating:
            from .obs.flight import flight

            recorder = flight()
            recorder.record("serve", "sigterm", pid=os.getpid(),
                            shards=args.shards)
            recorder.dump("sigterm", role="shard-supervisor",
                          shards=args.shards)
        terminating = True
        for pid in list(slots):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGTERM, _forward)
    code = 0
    try:
        while slots:
            try:
                pid, status = os.wait()
            except ChildProcessError:
                break
            slot = slots.pop(pid, None)
            if slot is None:
                continue
            child = os.waitstatus_to_exitcode(status)
            if terminating:
                if child == -signal.SIGTERM:
                    child = 0  # we asked the shard to stop
                code = code or child
                continue
            # An unsolicited death: reap, log, restart with backoff.
            lived = _time.monotonic() - started_at.get(slot, 0.0)
            if lived >= SHARD_STABLE_S:
                fast_failures[slot] = 0
            fast_failures[slot] += 1
            if fast_failures[slot] > SHARD_MAX_FAST_FAILURES:
                dump = _latest_flight_dump(pid)
                print(f"shard {slot} died {fast_failures[slot] - 1} times "
                      f"in a row (last exit {child}); giving up on it"
                      + (f"; last flight dump: {dump}" if dump else ""),
                      file=sys.stderr, flush=True)
                code = code or (child if child > 0 else 1)
                continue
            delay = min(5.0, 0.25 * (2 ** (fast_failures[slot] - 1)))
            restarts += 1
            dump = _latest_flight_dump(pid)
            print(f"shard {slot} (pid {pid}) died with exit {child} "
                  f"after {lived:.1f}s; restarting in {delay:.2f}s "
                  f"(restart #{restarts})"
                  + (f"; last flight dump: {dump}" if dump else ""),
                  file=sys.stderr, flush=True)
            _time.sleep(delay)
            if terminating:
                continue
            new_pid = _spawn_shard()
            slots[new_pid] = slot
            started_at[slot] = _time.monotonic()
    except KeyboardInterrupt:
        _forward(None, None)
        while slots:
            try:
                pid, _status = os.wait()
            except (ChildProcessError, KeyboardInterrupt):
                break
            slots.pop(pid, None)
        print("shutting down")
    finally:
        placeholder.close()
    if restarts:
        print(f"supervisor: {restarts} shard restarts total", flush=True)
    return code


def _cmd_serve(args, machine: Machine, executor) -> int:
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    _configure_observability(args)
    if args.shards > 1:
        return _serve_sharded(args, machine, executor)
    return _serve_one(args, machine, executor, args.host, args.port)


def _cmd_node(args, machine: Machine, executor) -> int:
    from .cluster import NodeAgent, NodeHTTPServer
    from .service import ReductionService

    _configure_observability(args)
    service = ReductionService(
        machine, executor=executor, settings=_service_settings(args)
    )
    server = NodeHTTPServer(service, args.host, args.port)
    agent = NodeAgent(args.coordinator, server, node_id=args.node_id)
    return _serve_until_sigterm(
        server, "node", "repro node",
        f", joining {args.coordinator} (Ctrl-C stops)",
        args.quiet, agent=agent,
    )


def _cmd_coordinator(args, machine: Machine, executor) -> int:
    import os

    from .cluster import CoordinatorHTTPServer, CoordinatorSettings

    _configure_observability(args)
    settings = CoordinatorSettings(
        lease_s=args.lease,
        grace_s=args.grace,
        vnodes=args.vnodes,
        max_attempts=args.max_attempts,
        retry_backoff_s=args.retry_backoff,
        hedge_delay_s=args.hedge_delay,
        forward_timeout_s=args.forward_timeout,
        degrade=not args.no_degrade,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        default_timeout_s=args.default_timeout,
        require_machine_match=not args.any_machine,
        jobs_dir=args.jobs_dir or os.environ.get("REPRO_JOBS_DIR"),
        jobs_max_running=args.jobs_max_running,
        jobs_workers=args.workers,
    )
    server = CoordinatorHTTPServer(
        machine, settings, args.host, args.port, cache=executor.cache
    )
    return _serve_until_sigterm(
        server, "coordinator", "repro coordinator",
        f" (lease {settings.lease_s:g}s + grace {settings.grace_s:g}s, "
        f"{settings.vnodes} vnodes, "
        f"jobs={'on' if settings.jobs_dir else 'off'}; Ctrl-C stops)",
        args.quiet,
    )


def _cmd_loadtest(args, machine: Machine, executor) -> int:
    import asyncio
    import json as _json
    from urllib.parse import urlsplit

    from .service import (
        ReductionService,
        ServiceHTTPServer,
        build_preset,
        run_load,
    )

    requests = build_preset(
        args.preset, total=args.requests, seed=args.seed,
        unique_points=args.unique_points,
    )
    _configure_observability(args)

    async def _run():
        if args.url:
            parts = urlsplit(args.url)
            return await run_load(
                parts.hostname or "127.0.0.1", parts.port or 80,
                requests, clients=args.clients, timeout_s=args.timeout,
                warmup=args.warmup,
            )
        service = ReductionService(
            machine, executor=executor, settings=_service_settings(args)
        )
        server = ServiceHTTPServer(service, "127.0.0.1", 0)
        host, port = await server.start()
        try:
            return await run_load(
                host, port, requests,
                clients=args.clients, timeout_s=args.timeout,
                warmup=args.warmup,
            )
        finally:
            await server.stop()

    report = asyncio.run(_run())
    print(report.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"latency report written to {args.out}")
    if report.dropped:
        print(f"error: {report.dropped} requests got no response "
              "(the service must reject explicitly, never drop)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args, machine: Machine, executor) -> int:
    import asyncio
    import json as _json
    import tempfile
    from urllib.parse import urlsplit

    from .faults.chaos import (
        run_chaos,
        run_job_kill_chaos,
        run_node_kill_chaos,
    )

    _configure_observability(args)

    if args.scenario == "node-kill":
        report = asyncio.run(
            run_node_kill_chaos(
                machine,
                seed=args.seed,
                nodes=args.nodes,
                duration_s=args.duration,
                clients=args.clients,
                unique_points=args.unique_points,
                error_budget=args.error_budget,
                recovery_slo_s=args.recovery_slo,
                preset=args.preset,
            )
        )
        print(report.render())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            print(f"chaos report written to {args.out}")
        return 0 if report.passed else 1

    if args.scenario == "job-kill":
        report = run_job_kill_chaos(
            machine, seed=args.seed, kills=args.job_kills,
            timeout_s=args.duration * 20 if args.duration else 300.0,
        )
        print(report.render())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            print(f"chaos report written to {args.out}")
        return 0 if report.passed else 1

    async def _storm(host: str, port: int):
        return await run_chaos(
            host, port, machine,
            seed=args.seed,
            duration_s=args.duration,
            clients=args.clients,
            unique_points=args.unique_points,
            client_faults=args.client_faults,
            error_budget=args.error_budget,
            recovery_slo_s=args.recovery_slo,
            timeout_s=args.request_timeout,
            preset=args.preset,
        )

    async def _run():
        if args.url:
            parts = urlsplit(args.url)
            return await _storm(parts.hostname or "127.0.0.1",
                                parts.port or 80)
        # In-process mode: a private service over a throwaway cache
        # directory, so injected cache corruption can never damage the
        # real persistent cache.
        from .service import ReductionService, ServiceHTTPServer

        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            svc_executor = SweepExecutor(
                machine,
                workers=args.workers,
                cache=ResultCache(tmp),
                task_timeout_s=args.task_timeout,
            )
            service = ReductionService(
                machine, executor=svc_executor,
                settings=_service_settings(args),
            )
            server = ServiceHTTPServer(service, "127.0.0.1", 0)
            host, port = await server.start()
            try:
                return await _storm(host, port)
            finally:
                await server.stop()
                svc_executor.close()

    report = asyncio.run(_run())
    print(report.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"chaos report written to {args.out}")
    return 0 if report.passed else 1


def _job_spec_from_args(args):
    """Build the validated JobSpec from --spec FILE or the grid flags."""
    import json as _json

    from .errors import SpecError
    from .jobs import parse_job_spec

    if args.spec:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = _json.loads(text)
        except ValueError as exc:
            raise SpecError(f"--spec is not valid JSON: {exc}") from exc
        return parse_job_spec(doc)

    def csv_ints(text: str, name: str):
        try:
            return [int(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise SpecError(
                f"--{name} must be comma-separated integers, got {text!r}"
            ) from exc

    return parse_job_spec({
        "case": args.case,
        "teams": csv_ints(args.teams, "teams"),
        "v": csv_ints(args.v, "v"),
        "threads": csv_ints(args.threads, "threads"),
        "trials": args.trials,
        "verify": args.verify,
        "checkpoint_interval": args.checkpoint_interval,
        "shard_records": args.shard_records,
        "label": args.label,
        "archive": args.archive,
    })


def _job_http(method: str, url: str, timeout_s: float, body=None):
    """One JSON-over-HTTP exchange; returns ``(status, raw bytes)``."""
    import json as _json
    import urllib.error
    import urllib.request

    data = None
    headers = {}
    if body is not None:
        data = _json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _job_http_json(method: str, url: str, timeout_s: float, body=None):
    import json as _json

    status, raw = _job_http(method, url, timeout_s, body)
    try:
        doc = _json.loads(raw.decode("utf-8")) if raw else {}
    except ValueError:
        doc = {"error": raw.decode("utf-8", "replace")[:200]}
    return status, doc


def _cmd_job(args, machine: Machine, executor) -> int:
    """``repro job run|submit|status|watch|cancel|resume``."""
    import json as _json
    import os
    from pathlib import Path

    from .jobs import load_job_spec, run_job

    if args.job_command == "run":
        if args.resume:
            if not args.dir:
                print("error: --resume needs --dir (the job directory "
                      "to pick up)", file=sys.stderr)
                return 2
            directory = Path(args.dir)
            spec = load_job_spec(directory)
        else:
            spec = _job_spec_from_args(args)
            if args.dir:
                directory = Path(args.dir)
            else:
                root = Path(
                    os.environ.get("REPRO_JOBS_DIR")
                    or Path.home() / ".cache" / "repro-jobs"
                )
                directory = root / spec.job_id(executor.machine_fingerprint)
        total = spec.total_points()

        def progress(done: int, state: str) -> None:
            if not args.quiet:
                print(f"{state} {done}/{total}", flush=True)

        state = run_job(
            directory, spec, executor,
            max_points=args.max_points,
            progress=progress,
            fsync=args.fsync,
        )
        print(_json.dumps(
            dict(state, directory=str(directory)),
            indent=2, sort_keys=True,
        ))
        return 0 if state.get("state") in ("DONE", "CHECKPOINTED") else 1

    # -- network subcommands against a `serve --jobs-dir` instance.
    base = args.url.rstrip("/")
    if args.job_command == "submit":
        spec = _job_spec_from_args(args)
        status, doc = _job_http_json(
            "POST", f"{base}/jobs", args.timeout, spec.to_dict()
        )
    elif args.job_command == "status":
        if args.id:
            status, doc = _job_http_json(
                "GET", f"{base}/jobs/{args.id}", args.timeout
            )
        else:
            status, doc = _job_http_json("GET", f"{base}/jobs", args.timeout)
    elif args.job_command == "cancel":
        status, doc = _job_http_json(
            "DELETE", f"{base}/jobs/{args.id}", args.timeout
        )
    elif args.job_command == "resume":
        status, doc = _job_http_json(
            "POST", f"{base}/jobs/{args.id}/resume", args.timeout
        )
    else:  # watch
        return _job_watch(args, base)
    print(_json.dumps(doc, indent=2, sort_keys=True))
    return 0 if status < 400 else 1


def _job_watch(args, base: str) -> int:
    """Poll one job to a terminal state, following its result stream."""
    import time as _time

    stream_out = None
    if args.stream_out == "-":
        stream_out = sys.stdout.buffer
    elif args.stream_out:
        stream_out = open(args.stream_out, "ab")
    offset = 0
    last = None
    try:
        while True:
            status, doc = _job_http_json(
                "GET", f"{base}/jobs/{args.id}", args.timeout
            )
            if status >= 400:
                print(f"error: {doc.get('error', f'HTTP {status}')}",
                      file=sys.stderr)
                return 1
            terminal = doc.get("state") in ("DONE", "FAILED", "CANCELLED")
            # A page is capped (4096 records): a terminal job's stream
            # is read until a page comes back empty.
            while stream_out is not None:
                http_status, raw = _job_http(
                    "GET", f"{base}/jobs/{args.id}/stream?offset={offset}",
                    args.timeout,
                )
                if http_status >= 400 or not raw:
                    break
                stream_out.write(raw)
                stream_out.flush()
                offset += raw.count(b"\n")
                if not terminal:
                    break
            snapshot = (doc.get("state"), doc.get("points_done"))
            if snapshot != last:
                print(f"{doc.get('state')} "
                      f"{doc.get('points_done')}/{doc.get('points_total')}",
                      flush=True)
                last = snapshot
            if terminal:
                if doc.get("error"):
                    print(f"error: {doc['error']}", file=sys.stderr)
                return 0 if doc.get("state") == "DONE" else 1
            _time.sleep(max(0.05, args.interval))
    finally:
        if stream_out is not None and stream_out is not sys.stdout.buffer:
            stream_out.close()


def _cmd_slo(args, machine: Machine, executor) -> int:
    """``repro slo check --url ...``: probe /health, render the verdict."""
    import json as _json
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/health"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            status = resp.status
            doc = _json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        # 503 is a *verdict* (unhealthy), not unreachability.
        status = exc.code
        try:
            doc = _json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            doc = {}
    except (OSError, ValueError) as exc:
        print(f"error: {url} unreachable: {exc}", file=sys.stderr)
        return 2
    healthy = bool(doc.get("healthy", status == 200))
    if not doc.get("slo_enabled", False):
        print("SLO evaluation is off on the service (serve with "
              "--metrics-interval or --slo); liveness only")
    for objective in doc.get("objectives", []):
        windows = ", ".join(
            "{:g}s={}{}".format(
                w.get("window_s", 0.0),
                "n/a" if w.get("value") is None
                else f"{w['value']:.4g}",
                "!" if w.get("violated") else "",
            )
            for w in objective.get("windows", [])
        )
        verdict = "ALERT" if objective.get("alerting") else "ok"
        print(f"{objective.get('name')}: {verdict} "
              f"[{objective.get('signal')} <= "
              f"{objective.get('limit', objective.get('threshold')):g}; "
              f"{windows}]")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"health report written to {args.out}")
    print(f"health: {'ok' if healthy and status == 200 else 'VIOLATING'} "
          f"(HTTP {status})")
    return 0 if healthy and status == 200 else 1


def _cmd_obs(args, machine: Machine, executor) -> int:
    """``repro obs blackbox FILE``: render a flight-recorder dump."""
    import json as _json

    from .obs.flight import DUMP_FORMAT

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = _json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    if doc.get("format") != DUMP_FORMAT:
        print(f"error: {args.file} is not a flight-recorder dump "
              f"(format={doc.get('format')!r})", file=sys.stderr)
        return 2
    dumped_at = float(doc.get("dumped_at", 0.0))
    events = list(doc.get("events", []))
    if args.window is not None:
        events = [
            e for e in events
            if dumped_at - float(e.get("t", 0.0)) <= args.window
        ]
    print(f"flight dump: reason={doc.get('reason')} pid={doc.get('pid')} "
          f"version={doc.get('version')}")
    context = doc.get("context") or {}
    if context:
        print("context: " + ", ".join(
            f"{k}={v}" for k, v in sorted(context.items())
        ))
    print(f"events ({len(events)}"
          + (f" in the last {args.window:g}s" if args.window else "")
          + "):")
    for event in events:
        age = dumped_at - float(event.get("t", 0.0))
        data = event.get("data") or {}
        detail = " ".join(f"{k}={v}" for k, v in sorted(data.items()))
        print(f"  -{age:8.3f}s  {event.get('kind')}.{event.get('name')}"
              + (f"  {detail}" if detail else ""))
    spans = doc.get("spans") or []
    if spans:
        print(f"span tail: {len(spans)} spans (newest last)")
        for span in spans[-10:]:
            print(f"  {span.get('category', '?')}:{span.get('name', '?')} "
                  f"{float(span.get('duration', 0.0)) * 1e3:.2f} ms")
    metrics_doc = doc.get("metrics") or []
    if metrics_doc:
        print(f"metrics snapshot: {len(metrics_doc)} instruments")
    return 0


def _cmd_verify(args, machine: Machine, executor) -> int:
    """``repro verify fuzz|diff|golden|bless|perf``."""
    import json as _json

    from .errors import SpecError
    from .verify import GoldenCorpus
    from .verify.differential import run_fuzz
    from .verify.perfgate import (
        DEFAULT_THRESHOLD,
        compare_benchmarks,
        default_baseline_path,
        run_perf_suite,
    )

    def split_list(text):
        if text is None:
            return None
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise SpecError("expected a non-empty comma-separated list")
        return items

    if args.verify_command in ("fuzz", "diff"):
        report = run_fuzz(
            seed=args.seed,
            count=args.cases,
            kinds=split_list(args.kinds),
            machine=machine,
            time_budget_s=args.time_budget,
        )
        print(report.describe())
        print(f"case list sha256: {report.digest}")
        for divergence in report.divergences:
            print(f"  DIVERGENCE {divergence.describe()}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            print(f"fuzz report written to {args.out}")
        return 0 if report.ok else 1

    if args.verify_command in ("golden", "bless"):
        corpus = GoldenCorpus(directory=args.golden_dir)
        entries = split_list(args.entries)
        if args.verify_command == "bless":
            for path in corpus.bless(entries):
                print(f"blessed {path}")
            return 0
        report = corpus.check(entries)
        for name, entry in sorted(report["entries"].items()):
            line = f"{name}: {entry['status']}"
            if entry["status"] == "mismatch":
                line += f" ({entry['detail']})"
            print(line)
        if not report["ok"]:
            print("golden corpus drifted - if the change is intentional, "
                  "run `repro verify bless` and review the diff")
        return 0 if report["ok"] else 1

    # perf.  Load the baseline *before* writing --out: when the CLI runs
    # from the repo root, --out defaults to the committed baseline's own
    # path, and writing first would make the gate compare the report to
    # itself.
    baseline = None
    if args.baseline != "none":
        baseline_path = args.baseline or default_baseline_path()
        try:
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = _json.load(fh)
        except FileNotFoundError:
            print(f"no baseline at {baseline_path}; gate skipped "
                  "(run with --update-baseline to create one)")
    report = run_perf_suite(repeats=args.repeats)
    print(report.describe())
    out = report.write(args.out)
    print(f"benchmark report written to {out}")
    regressions = []
    if args.baseline != "none":
        if baseline is not None:
            regressions = compare_benchmarks(
                report, baseline,
                threshold=args.threshold or DEFAULT_THRESHOLD,
            )
            for reg in regressions:
                print(
                    f"  REGRESSION {reg['benchmark']}: "
                    f"{reg['current_s'] * 1e3:.2f} ms vs baseline "
                    f"{reg['baseline_s'] * 1e3:.2f} ms "
                    f"({reg['ratio']:.1f}x > {reg['threshold']:g}x)"
                )
            if not regressions:
                print(f"perf gate ok (threshold "
                      f"{args.threshold or DEFAULT_THRESHOLD:g}x)")
    if args.update_baseline:
        path = report.write(default_baseline_path())
        print(f"baseline updated at {path}")
    return 1 if regressions else 0


_COMMANDS = {
    "describe": _cmd_describe,
    "sum": _cmd_sum,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "coexec": _cmd_coexec,
    "report": _cmd_report,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "node": _cmd_node,
    "coordinator": _cmd_coordinator,
    "loadtest": _cmd_loadtest,
    "chaos": _cmd_chaos,
    "job": _cmd_job,
    "slo": _cmd_slo,
    "obs": _cmd_obs,
    "verify": _cmd_verify,
}


def _cmd_profile(args) -> int:
    """``repro profile run ...`` / ``repro profile view FILE``."""
    if args.profile_command == "view":
        import json

        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "traceEvents" in doc:
            print("error: that is a Chrome-trace file - open it in "
                  "ui.perfetto.dev; `profile view` renders snapshots "
                  "from `profile run --snapshot-out`", file=sys.stderr)
            return 2
        spans = [Span.from_dict(d) for d in doc.get("spans", [])]
        registry = MetricsRegistry()
        registry.merge(doc.get("metrics", []))
        print(render_summary(spans, registry))
        if args.flame:
            print()
            print(render_flame(spans))
        return 0

    rest = [a for a in args.rest if a != "--"]
    if not rest:
        print("error: profile run needs a command, e.g. "
              "`repro profile run table1 --trials 20`", file=sys.stderr)
        return 2
    if rest[0] == "profile":
        print("error: profile cannot profile itself", file=sys.stderr)
        return 2
    inner = build_parser().parse_args(rest)
    configure_telemetry(enabled=True, reset=True)
    code = _dispatch(
        inner,
        trace_out=getattr(inner, "trace_out", None) or args.trace_out,
        snapshot_out=args.snapshot_out,
    )
    telemetry = get_telemetry()
    print()
    print(render_summary(telemetry.recorder.snapshot(), telemetry.registry))
    if args.flame:
        print()
        print(render_flame(telemetry.recorder.snapshot()))
    return code


def _dispatch(
    args,
    trace_out: Optional[str] = None,
    snapshot_out: Optional[str] = None,
) -> int:
    """Build the machine/executor, run one command, export telemetry."""
    trace_out = trace_out or getattr(args, "trace_out", None)
    if trace_out or snapshot_out:
        configure_telemetry(enabled=True)
    config = None
    overrides = {}
    if args.functional_cap is not None:
        overrides["functional_elements_cap"] = int(args.functional_cap)
    if args.faults:
        overrides["faults"] = args.faults
    if getattr(args, "machine_profile", None):
        overrides["machine_profile"] = args.machine_profile
    if overrides:
        from dataclasses import replace as _replace

        from .config import DEFAULT_CONFIG

        config = _replace(DEFAULT_CONFIG, **overrides)
    machine = Machine(config=config)
    telemetry = get_telemetry()
    try:
        cache = open_result_cache(
            args.cache_dir or machine.config.sweep_cache_dir,
            enabled=not args.no_cache,
        )
        executor = SweepExecutor(
            machine, workers=args.workers, cache=cache,
            task_timeout_s=args.task_timeout,
        )
        with tele_span(f"repro.{args.command}", category="cli",
                       command=args.command):
            code = _COMMANDS[args.command](args, machine, executor)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.stats:
        print()
        print(executor.stats.render())
        if executor.cache is not None:
            print(executor.cache.describe())
    publish_counts(telemetry.registry, machine.trace, executor.cache,
                   machine.values)
    if trace_out:
        path = write_chrome_trace(
            trace_out, trace=machine.trace, registry=telemetry.registry
        )
        print(f"chrome trace written to {path} (open in ui.perfetto.dev)")
    if snapshot_out:
        path = write_snapshot(snapshot_out, telemetry, trace=machine.trace)
        print(f"telemetry snapshot written to {path}")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "profile":
        return _cmd_profile(args)
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
