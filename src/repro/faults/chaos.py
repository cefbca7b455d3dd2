"""The chaos harness behind ``repro chaos``.

Runs a time-boxed storm of loadgen-style clients against a live service
while faults are active (server-side via ``REPRO_FAULTS`` on the serving
process, client-side via a local ``chaos.client`` plan that sabotages
requests: mid-body disconnects, slowloris dribble, malformed JSON), then
asserts the resilience invariants:

1. **No silent wrong results** — before the storm, every unique request
   in the pool is computed once on a clean serial executor (no cache,
   no pool, no injection points on that path); every ``ok``
   non-degraded response is verified byte-for-byte against that truth.
2. **Bounded error rate** — excluding deliberately sabotaged requests,
   the fraction of errored/dropped requests must stay under the budget.
   Explicit rejections (backpressure) and degraded responses are
   counted separately: they are the service *working*, not failing.
3. **Recovery SLO** — after the storm, the harness probes until a full
   pass over the pool answers ``ok`` and non-degraded, and the time to
   get there must beat the SLO.

The report also pulls ``/metrics`` from the service so every injected
fault shows up as a ``faults.injected`` counter in the artifact.

Truth and the service must agree on the machine configuration
(notably ``--functional-cap``) or fingerprints will not match and
verification is skipped — the report counts such unverifiable responses.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.flight import flight
from ..service.api import parse_request
from ..service.loadgen import _read_http_response, preset_pool
from ..sweep.executor import SweepExecutor
from .plan import FaultPlan

__all__ = [
    "ChaosReport",
    "JobKillReport",
    "NodeKillReport",
    "compute_truth",
    "run_chaos",
    "run_job_kill_chaos",
    "run_node_kill_chaos",
]


@dataclass
class ChaosReport:
    """Aggregated outcome of one chaos run, with invariant verdicts."""

    seed: int = 0
    duration_s: float = 0.0
    wall_seconds: float = 0.0
    sent: int = 0
    ok: int = 0
    degraded: int = 0
    rejected: int = 0
    errors: int = 0
    dropped: int = 0
    sabotaged: int = 0
    verified: int = 0
    unverifiable: int = 0
    wrong_results: int = 0
    malformed_accepted: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)
    by_reason: Dict[str, int] = field(default_factory=dict)
    by_sabotage: Dict[str, int] = field(default_factory=dict)
    recovered: bool = False
    recovery_seconds: Optional[float] = None
    recovery_slo_s: float = 0.0
    error_budget: float = 0.0
    faults_injected: Dict[str, float] = field(default_factory=dict)
    breaker_transitions: Dict[str, float] = field(default_factory=dict)
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean_sent(self) -> int:
        return max(0, self.sent - self.sabotaged)

    @property
    def error_rate(self) -> float:
        return (self.errors + self.dropped) / max(1, self.clean_sent)

    @property
    def total_faults_injected(self) -> float:
        return sum(self.faults_injected.values())

    def finalize(self) -> "ChaosReport":
        """Evaluate the invariants; populates :attr:`violations`."""
        self.violations = []
        if self.wrong_results:
            self.violations.append(
                f"{self.wrong_results} silently wrong results (must be 0)"
            )
        if self.malformed_accepted:
            self.violations.append(
                f"{self.malformed_accepted} malformed requests answered ok"
            )
        if self.error_rate > self.error_budget:
            self.violations.append(
                f"error rate {self.error_rate:.4f} over budget "
                f"{self.error_budget:.4f} "
                f"({self.errors} errors + {self.dropped} dropped "
                f"of {self.clean_sent} clean requests)"
            )
        if not self.recovered:
            self.violations.append(
                f"service did not recover within the {self.recovery_slo_s:g}s "
                "SLO after the storm"
            )
        elif (
            self.recovery_seconds is not None
            and self.recovery_seconds > self.recovery_slo_s
        ):
            self.violations.append(
                f"recovery took {self.recovery_seconds:.2f}s, over the "
                f"{self.recovery_slo_s:g}s SLO"
            )
        return self

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "wall_seconds": self.wall_seconds,
            "sent": self.sent,
            "ok": self.ok,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "errors": self.errors,
            "dropped": self.dropped,
            "sabotaged": self.sabotaged,
            "verified": self.verified,
            "unverifiable": self.unverifiable,
            "wrong_results": self.wrong_results,
            "malformed_accepted": self.malformed_accepted,
            "error_rate": self.error_rate,
            "error_budget": self.error_budget,
            "by_source": dict(sorted(self.by_source.items())),
            "by_reason": dict(sorted(self.by_reason.items())),
            "by_sabotage": dict(sorted(self.by_sabotage.items())),
            "recovered": self.recovered,
            "recovery_seconds": self.recovery_seconds,
            "recovery_slo_s": self.recovery_slo_s,
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "total_faults_injected": self.total_faults_injected,
            "breaker_transitions": dict(
                sorted(self.breaker_transitions.items())
            ),
            "mismatches": self.mismatches[:10],
            "violations": list(self.violations),
            "passed": self.passed,
        }

    def render(self) -> str:
        lines = [
            f"chaos: sent {self.sent} in {self.wall_seconds:.1f} s — "
            f"{self.ok} ok, {self.degraded} degraded, "
            f"{self.rejected} rejected, {self.errors} errors, "
            f"{self.dropped} dropped, {self.sabotaged} sabotaged",
            f"verified {self.verified} responses against ground truth: "
            f"{self.wrong_results} wrong"
            + (f" ({self.unverifiable} unverifiable)"
               if self.unverifiable else ""),
            f"clean error rate {self.error_rate:.4f} "
            f"(budget {self.error_budget:.4f})",
        ]
        if self.recovered:
            lines.append(
                f"recovered in {self.recovery_seconds:.2f} s "
                f"(SLO {self.recovery_slo_s:g} s)"
            )
        else:
            lines.append(
                f"NOT recovered within the {self.recovery_slo_s:g} s SLO"
            )
        if self.faults_injected:
            lines.append(
                "faults injected: " + ", ".join(
                    f"{k}={v:g}"
                    for k, v in sorted(self.faults_injected.items())
                )
            )
        else:
            lines.append("faults injected: none reported by the service")
        if self.breaker_transitions:
            lines.append(
                "breaker transitions: " + ", ".join(
                    f"{k}={v:g}"
                    for k, v in sorted(self.breaker_transitions.items())
                )
            )
        if self.by_sabotage:
            lines.append(
                "sabotage: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.by_sabotage.items())
                )
            )
        if self.violations:
            lines.append("FAIL:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("PASS: all chaos invariants held")
        return "\n".join(lines)


def compute_truth(
    machine: Any, pool: List[Dict[str, Any]]
) -> Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Ground truth per pool entry: ``fingerprint -> (entry, record)``.

    Runs on a clean serial executor with no cache: the serial path has
    no injection points, so the truth is fault-free even while a plan is
    active in this process.
    """
    # task_timeout_s=0 explicitly disables any environment-supplied
    # deadline: truth must take the serial path (no injection points),
    # even when REPRO_SWEEP_TIMEOUT is exported for the server side.
    executor = SweepExecutor(machine, workers=1, cache=None, task_timeout_s=0)
    truth: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
    for entry in pool:
        request = parse_request(dict(entry, client_id="chaos-truth"))
        kind, payload = request.payload()
        key = executor.cache_key(kind, payload)
        record = executor.run(kind, [payload], stage="chaos-truth")[0]
        # Round-trip through JSON so comparisons see exactly what a
        # served (cached) record looks like on the wire.
        truth[key] = (entry, json.loads(json.dumps(record)))
    return truth


def _strip_summary(result: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in result.items() if k != "summary"}


async def _fetch_json(host: str, port: int, path: str) -> Any:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        _status, doc = await asyncio.wait_for(
            _read_http_response(reader), 10.0
        )
        return doc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _ChaosClient:
    """One storm client: keep-alive connection + optional sabotage."""

    def __init__(
        self,
        host: str,
        port: int,
        index: int,
        seed: int,
        pool: List[Dict[str, Any]],
        truth: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]],
        plan: Optional[FaultPlan],
        report: ChaosReport,
        timeout_s: float,
    ):
        self.host = host
        self.port = port
        self.index = index
        self.rng = random.Random((seed << 8) ^ index)
        self.pool = pool
        self.truth = truth
        self.plan = plan
        self.report = report
        self.timeout_s = timeout_s
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    def _frame(self, body: bytes) -> bytes:
        return (
            f"POST /simulate HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")

    async def _connect(self) -> None:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )

    def _drop_connection(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None

    def _classify(self, doc: Optional[Dict[str, Any]]) -> None:
        report = self.report
        doc = doc or {}
        status = doc.get("status", "error")
        if status == "ok":
            source = doc.get("source") or "?"
            report.by_source[source] = report.by_source.get(source, 0) + 1
            if doc.get("degraded") or source == "degraded":
                report.degraded += 1
                return
            report.ok += 1
            fingerprint = doc.get("fingerprint")
            entry = self.truth.get(fingerprint)
            if entry is None:
                report.unverifiable += 1
                return
            expected = entry[1]
            got = _strip_summary(doc.get("result") or {})
            report.verified += 1
            if got != expected:
                report.wrong_results += 1
                if len(report.mismatches) < 10:
                    report.mismatches.append(
                        {
                            "fingerprint": fingerprint,
                            "source": source,
                            "expected": expected,
                            "got": got,
                        }
                    )
        elif status == "rejected":
            report.rejected += 1
            reason = doc.get("reason") or "?"
            report.by_reason[reason] = report.by_reason.get(reason, 0) + 1
        else:
            report.errors += 1
            reason = doc.get("reason") or "?"
            report.by_reason[reason] = report.by_reason.get(reason, 0) + 1

    async def run_until(self, deadline: float) -> None:
        report = self.report
        while time.perf_counter() < deadline:
            entry = self.rng.choice(self.pool)
            body = json.dumps(
                dict(entry, client_id=f"chaos-{self.index}"),
                separators=(",", ":"),
            ).encode()
            decision = (
                self.plan.decide("chaos.client")
                if self.plan is not None else None
            )
            mode = decision.mode if decision is not None else None
            report.sent += 1
            sabotage = mode in ("disconnect", "slowloris", "malformed")
            if sabotage:
                report.sabotaged += 1
                report.by_sabotage[mode] = (
                    report.by_sabotage.get(mode, 0) + 1
                )
            try:
                await self._connect()
                if mode == "disconnect":
                    # Send a torn request and hang up: the server must
                    # just close its side, never crash or stall.
                    self.writer.write(
                        self._frame(body) + body[: max(1, len(body) // 2)]
                    )
                    await self.writer.drain()
                    self._drop_connection()
                    continue
                if mode == "malformed":
                    bad = b'{"experiment": nonsense,'
                    self.writer.write(self._frame(bad) + bad)
                else:
                    if mode == "slowloris":
                        # Dribble: headers, a pause, then the body.
                        self.writer.write(self._frame(body))
                        await self.writer.drain()
                        await asyncio.sleep(
                            decision.delay_s
                            if decision.delay_s is not None else 0.25
                        )
                        self.writer.write(body)
                    else:
                        self.writer.write(self._frame(body) + body)
                await self.writer.drain()
                _status, doc = await asyncio.wait_for(
                    _read_http_response(self.reader), self.timeout_s
                )
            except (
                ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError,
            ):
                if not sabotage:
                    report.dropped += 1
                self._drop_connection()
                continue
            if mode == "malformed":
                if (doc or {}).get("status") == "ok":
                    report.malformed_accepted += 1
                continue
            self._classify(doc)
        self._drop_connection()


async def _probe_recovery(
    host: str,
    port: int,
    pool: List[Dict[str, Any]],
    slo_s: float,
    timeout_s: float,
) -> Tuple[bool, Optional[float]]:
    """Time until one full pool pass answers ok and non-degraded."""
    started = time.perf_counter()
    deadline = started + slo_s
    while True:
        all_good = True
        for entry in pool:
            body = json.dumps(
                dict(entry, client_id="chaos-recovery"), separators=(",", ":")
            ).encode()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(
                        (
                            f"POST /simulate HTTP/1.1\r\n"
                            f"Host: {host}:{port}\r\n"
                            "Content-Type: application/json\r\n"
                            "Connection: close\r\n"
                            f"Content-Length: {len(body)}\r\n\r\n"
                        ).encode("latin-1") + body
                    )
                    await writer.drain()
                    _status, doc = await asyncio.wait_for(
                        _read_http_response(reader), timeout_s
                    )
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
            except (
                ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError,
            ):
                all_good = False
                break
            doc = doc or {}
            if doc.get("status") != "ok" or doc.get("degraded"):
                all_good = False
                break
        if all_good:
            return True, time.perf_counter() - started
        if time.perf_counter() >= deadline:
            return False, None
        await asyncio.sleep(0.2)


async def _collect_metrics(
    host: str, port: int, report: ChaosReport
) -> None:
    try:
        doc = await _fetch_json(host, port, "/metrics")
    except (ConnectionError, OSError, asyncio.TimeoutError, ValueError):
        return
    for entry in (doc or {}).get("metrics", []):
        name = entry.get("name")
        labels = entry.get("labels", {}) or {}
        value = entry.get("value")
        if not isinstance(value, (int, float)):
            continue
        if name == "faults.injected":
            key = f"{labels.get('point', '?')}:{labels.get('mode', '?')}"
            report.faults_injected[key] = (
                report.faults_injected.get(key, 0) + value
            )
        elif name == "breaker.transitions":
            key = f"{labels.get('breaker', '?')}->{labels.get('to', '?')}"
            report.breaker_transitions[key] = (
                report.breaker_transitions.get(key, 0) + value
            )


@dataclass
class JobKillReport:
    """Outcome of the kill-mid-job chaos scenario (``--scenario job-kill``).

    Real runner subprocesses are SIGKILL-shaped dead (``os._exit`` via
    the ``job.point:crash`` fault, which loses the buffered store tail
    exactly like a kill) at seeded random point indices, the job is
    resumed until DONE, and the final directory is held to the same bar
    as the differential resume oracle: byte-identical to an
    uninterrupted run, zero wrong / duplicated / missing points.
    """

    seed: int = 0
    requested_kills: int = 0
    kills: int = 0
    runs: int = 0
    points_total: int = 0
    points_done: int = 0
    completed: bool = False
    byte_identical: bool = False
    wrong_points: int = 0
    duplicated_points: int = 0
    missing_points: int = 0
    wall_seconds: float = 0.0
    violations: List[str] = field(default_factory=list)

    def finalize(self) -> "JobKillReport":
        self.violations = []
        if not self.completed:
            self.violations.append(
                f"job never reached DONE ({self.points_done}/"
                f"{self.points_total} points after {self.runs} runs)"
            )
        if self.kills < 1:
            self.violations.append(
                "no runner process was actually killed - the scenario "
                "exercised nothing"
            )
        if self.wrong_points:
            self.violations.append(
                f"{self.wrong_points} wrong result points (must be 0)"
            )
        if self.duplicated_points:
            self.violations.append(
                f"{self.duplicated_points} duplicated points (must be 0)"
            )
        if self.missing_points:
            self.violations.append(
                f"{self.missing_points} missing points (must be 0)"
            )
        if self.completed and not self.byte_identical:
            self.violations.append(
                "resumed job directory is not byte-identical to the "
                "uninterrupted run"
            )
        return self

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": "job-kill",
            "seed": self.seed,
            "requested_kills": self.requested_kills,
            "kills": self.kills,
            "runs": self.runs,
            "points_total": self.points_total,
            "points_done": self.points_done,
            "completed": self.completed,
            "byte_identical": self.byte_identical,
            "wrong_points": self.wrong_points,
            "duplicated_points": self.duplicated_points,
            "missing_points": self.missing_points,
            "wall_seconds": self.wall_seconds,
            "violations": list(self.violations),
            "passed": self.passed,
        }

    def render(self) -> str:
        lines = [
            f"job-kill chaos: {self.kills} kills over {self.runs} runner "
            f"processes in {self.wall_seconds:.1f} s - "
            f"{self.points_done}/{self.points_total} points, "
            f"{'DONE' if self.completed else 'NOT DONE'}",
            f"byte-identical to uninterrupted run: "
            f"{'yes' if self.byte_identical else 'NO'}; "
            f"wrong={self.wrong_points} duplicated={self.duplicated_points} "
            f"missing={self.missing_points}",
        ]
        if self.violations:
            lines.append("FAIL:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("PASS: kill-mid-job invariants held")
        return "\n".join(lines)


def _job_records(directory: Any) -> List[Dict[str, Any]]:
    """Every raw shard line of a job directory, parsed, in file order."""
    from ..jobs.store import SHARD_DIR

    out: List[Dict[str, Any]] = []
    for shard in sorted(directory.glob(f"{SHARD_DIR}/shard-*.jsonl")):
        for line in shard.read_bytes().splitlines():
            out.append(json.loads(line))
    return out


def _compare_job_dirs(truth_dir: Any, job_dir: Any) -> Dict[str, Any]:
    """The differential-oracle verdict for two completed job dirs.

    Returns wrong/duplicated/missing point counts and whether the
    manifest + every shard file match byte for byte.
    """
    from ..jobs.store import SHARD_DIR

    truth_records = _job_records(truth_dir)
    job_records = _job_records(job_dir)
    truth_by_index = {e["i"]: e for e in truth_records}
    seen: Dict[int, int] = {}
    wrong = 0
    for entry in job_records:
        seen[entry["i"]] = seen.get(entry["i"], 0) + 1
        expected = truth_by_index.get(entry["i"])
        if expected is None or expected["r"] != entry["r"]:
            wrong += 1
    names = sorted(
        p.name for p in (truth_dir / SHARD_DIR).glob("shard-*.jsonl")
    )
    byte_identical = all(
        (truth_dir / rel).read_bytes() == (job_dir / rel).read_bytes()
        for rel in ["manifest.json"]
        + [f"{SHARD_DIR}/{name}" for name in names]
    ) and names == sorted(
        p.name for p in (job_dir / SHARD_DIR).glob("shard-*.jsonl")
    )
    return {
        "wrong_points": wrong,
        "duplicated_points": sum(n - 1 for n in seen.values() if n > 1),
        "missing_points": len(set(truth_by_index) - set(seen)),
        "byte_identical": byte_identical,
    }


def _machine_flags(machine: Any) -> List[str]:
    """Global ``repro`` flags that carry *machine*'s functional cap and
    machine profile into a subprocess: the CLI's ``--functional-cap`` and
    ``--machine-profile``, all that a CLI-built machine can differ in."""
    config = machine.config
    return ["--functional-cap", str(config.functional_elements_cap),
            "--machine-profile", config.machine_profile]


def run_job_kill_chaos(
    machine: Any,
    seed: int = 7,
    kills: int = 3,
    timeout_s: float = 300.0,
    spec: Any = None,
) -> JobKillReport:
    """Kill real ``repro job run`` subprocesses mid-sweep, resume, verify.

    Each killed attempt sets ``REPRO_FAULTS`` to
    ``job.point:crash:after=K`` with a seeded random ``K``, so the child
    dies by ``os._exit`` at an exact point index — the buffered store
    tail is lost, as under a real SIGKILL.  Rerunning the identical
    command resumes (the job runner is resume-native); once DONE the
    directory must match an uninterrupted in-process run byte for byte.
    """
    import os
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    from ..jobs.api import JobSpec
    from ..jobs.manager import read_state, run_job

    if spec is None:
        # Small enough for CI, but crossing several checkpoint intervals
        # and shard rotations so kills land in interesting places.
        spec = JobSpec(
            case="C1",
            teams=(64, 128, 256),
            v=(2, 4),
            threads=(32, 64),
            trials=5,
            checkpoint_interval=4,
            shard_records=5,
        )
    rng = random.Random(seed)
    report = JobKillReport(
        seed=seed,
        requested_kills=max(1, kills),
        points_total=spec.total_points(),
    )
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-job-") as tmp:
        root = Path(tmp)
        truth_dir = root / "truth"
        executor = SweepExecutor(machine, workers=1, cache=None)
        try:
            run_job(truth_dir, spec, executor)
        finally:
            executor.close()

        job_dir = root / "job"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2])
            + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        command = [
            sys.executable, "-m", "repro", "--no-cache",
            *_machine_flags(machine), "job", "run",
            "--quiet", "--dir", str(job_dir),
            "--case", spec.case,
            "--teams", ",".join(map(str, spec.teams)),
            "--v", ",".join(map(str, spec.v)),
            "--threads", ",".join(map(str, spec.threads)),
            "--trials", str(spec.trials),
            "--checkpoint-interval", str(spec.checkpoint_interval),
            "--shard-records", str(spec.shard_records),
        ]
        deadline = started + timeout_s
        while report.runs < report.requested_kills + 4:
            state = read_state(job_dir) if job_dir.is_dir() else None
            if state is not None and state.get("state") == "DONE":
                break
            run_env = dict(env)
            run_env.pop("REPRO_FAULTS", None)
            done = int((state or {}).get("points_done", 0))
            remaining = spec.total_points() - done
            if report.kills < report.requested_kills and remaining > 1:
                # Crash at a seeded random index of the *remaining*
                # stream (excluding the last point, where resolving the
                # chunk can finish the job before the probe fires).
                k = rng.randrange(0, remaining - 1)
                run_env["REPRO_FAULTS"] = (
                    f"seed={seed + report.runs};job.point:crash:after={k}"
                )
            proc = subprocess.run(
                command, env=run_env, capture_output=True,
                timeout=max(1.0, deadline - time.perf_counter()),
            )
            report.runs += 1
            if proc.returncode == 3:
                report.kills += 1

        final = read_state(job_dir) if job_dir.is_dir() else None
        report.points_done = int((final or {}).get("points_done", 0))
        report.completed = bool(final and final.get("state") == "DONE")
        if report.completed:
            verdict = _compare_job_dirs(truth_dir, job_dir)
            report.wrong_points = verdict["wrong_points"]
            report.duplicated_points = verdict["duplicated_points"]
            report.missing_points = verdict["missing_points"]
            report.byte_identical = verdict["byte_identical"]
    report.wall_seconds = time.perf_counter() - started
    report.finalize()
    if report.violations:
        recorder = flight()
        recorder.record(
            "chaos", "job_kill_violation",
            seed=seed, violations=list(report.violations),
        )
        recorder.dump(
            "chaos_violation", scenario="job-kill", seed=seed,
            violations=list(report.violations),
        )
    return report


@dataclass
class NodeKillReport:
    """Outcome of the node-kill cluster chaos scenario (``--scenario
    node-kill``).

    A coordinator plus N real worker-node subprocesses run a seeded
    request storm *and* a streaming job at the same time; one node is
    SIGKILLed while the job is mid-flight.  The cluster must detect the
    loss (membership DEAD), re-route around it, and still deliver: zero
    wrong results in the storm, a DONE job whose directory is
    byte-identical to an uninterrupted single-node run, and zero digest
    conflicts on re-assigned chunks.
    """

    seed: int = 0
    nodes_requested: int = 0
    nodes_joined: int = 0
    kills: int = 0
    job_state_at_kill: str = ""
    node_loss_detected: bool = False
    chunks_remote: int = 0
    chunks_local: int = 0
    chunks_reassigned: int = 0
    chunk_conflicts: int = 0
    resumes: int = 0
    points_total: int = 0
    points_done: int = 0
    completed: bool = False
    byte_identical: bool = False
    wrong_points: int = 0
    duplicated_points: int = 0
    missing_points: int = 0
    storm: Optional[Dict[str, Any]] = None
    wall_seconds: float = 0.0
    violations: List[str] = field(default_factory=list)

    def finalize(self) -> "NodeKillReport":
        self.violations = []
        if self.nodes_joined < self.nodes_requested:
            self.violations.append(
                f"only {self.nodes_joined}/{self.nodes_requested} worker "
                "nodes joined the cluster"
            )
        if self.kills < 1:
            self.violations.append(
                "no worker node was actually killed - the scenario "
                "exercised nothing"
            )
        elif self.job_state_at_kill not in ("RUNNING", "CHECKPOINTED"):
            # CHECKPOINTED is the durable between-intervals state a
            # live run passes through at every checkpoint - both mean
            # the sweep was genuinely in flight when the node died.
            self.violations.append(
                "the node was killed while the job was "
                f"{self.job_state_at_kill or 'not yet submitted'!r}, not "
                "mid-flight"
            )
        if self.kills and not self.node_loss_detected:
            self.violations.append(
                "membership never declared the killed node DEAD"
            )
        if self.chunk_conflicts:
            self.violations.append(
                f"{self.chunk_conflicts} chunk digest conflicts (a "
                "re-assigned chunk produced a different result - must "
                "be 0)"
            )
        if not self.completed:
            self.violations.append(
                f"job never reached DONE ({self.points_done}/"
                f"{self.points_total} points after {self.resumes} resumes)"
            )
        if self.wrong_points:
            self.violations.append(
                f"{self.wrong_points} wrong result points (must be 0)"
            )
        if self.duplicated_points:
            self.violations.append(
                f"{self.duplicated_points} duplicated points (must be 0)"
            )
        if self.missing_points:
            self.violations.append(
                f"{self.missing_points} missing points (must be 0)"
            )
        if self.completed and not self.byte_identical:
            self.violations.append(
                "the cluster job directory is not byte-identical to the "
                "uninterrupted single-node run"
            )
        for violation in (self.storm or {}).get("violations", []):
            self.violations.append(f"storm: {violation}")
        return self

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": "node-kill",
            "seed": self.seed,
            "nodes_requested": self.nodes_requested,
            "nodes_joined": self.nodes_joined,
            "kills": self.kills,
            "job_state_at_kill": self.job_state_at_kill,
            "node_loss_detected": self.node_loss_detected,
            "chunks_remote": self.chunks_remote,
            "chunks_local": self.chunks_local,
            "chunks_reassigned": self.chunks_reassigned,
            "chunk_conflicts": self.chunk_conflicts,
            "resumes": self.resumes,
            "points_total": self.points_total,
            "points_done": self.points_done,
            "completed": self.completed,
            "byte_identical": self.byte_identical,
            "wrong_points": self.wrong_points,
            "duplicated_points": self.duplicated_points,
            "missing_points": self.missing_points,
            "storm": self.storm,
            "wall_seconds": self.wall_seconds,
            "violations": list(self.violations),
            "passed": self.passed,
        }

    def render(self) -> str:
        storm = self.storm or {}
        lines = [
            f"node-kill chaos: {self.nodes_joined}/{self.nodes_requested} "
            f"nodes, {self.kills} killed (job {self.job_state_at_kill or '?'} "
            f"at kill), loss detected: "
            f"{'yes' if self.node_loss_detected else 'NO'}, "
            f"{self.wall_seconds:.1f} s",
            f"job: {self.points_done}/{self.points_total} points, "
            f"{'DONE' if self.completed else 'NOT DONE'} after "
            f"{self.resumes} resumes; chunks remote={self.chunks_remote} "
            f"local={self.chunks_local} reassigned={self.chunks_reassigned} "
            f"conflicts={self.chunk_conflicts}",
            f"byte-identical to single-node run: "
            f"{'yes' if self.byte_identical else 'NO'}; "
            f"wrong={self.wrong_points} duplicated={self.duplicated_points} "
            f"missing={self.missing_points}",
            f"storm: {storm.get('sent', 0)} requests, "
            f"{storm.get('wrong_results', 0)} wrong, error rate "
            f"{storm.get('error_rate', 0.0):.4f}, recovered in "
            f"{storm.get('recovery_seconds', 0.0):.1f} s",
        ]
        if self.violations:
            lines.append("FAIL:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("PASS: node-loss invariants held")
        return "\n".join(lines)


def _counter_total(snapshot: List[Dict[str, Any]], name: str) -> int:
    return int(
        sum(
            entry.get("value", 0) or 0
            for entry in snapshot
            if entry.get("type") == "counter" and entry.get("name") == name
        )
    )


async def run_node_kill_chaos(
    machine: Any,
    seed: int = 7,
    nodes: int = 3,
    duration_s: float = 8.0,
    clients: int = 4,
    unique_points: int = 4,
    error_budget: float = 0.05,
    recovery_slo_s: float = 15.0,
    timeout_s: float = 300.0,
    preset: str = "small",
    spec: Any = None,
) -> NodeKillReport:
    """SIGKILL a live worker node mid-storm and mid-job; verify recovery.

    The coordinator runs in-process (so the report can read membership
    and the assigner directly); the worker nodes are real ``repro node``
    subprocesses built from *machine*'s configuration, so their
    fingerprints match and their joins are accepted.  The chunk counters
    are reported as deltas over the scenario: the coordinator's registry
    is process-wide.
    """
    import os
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    from ..cluster import CoordinatorHTTPServer, CoordinatorSettings
    from ..cluster.membership import ALIVE, DEAD
    from ..jobs.api import JobSpec
    from ..jobs.manager import run_job

    if spec is None:
        # One point per chunk over a 12-point grid: with 12 ring
        # lookups, the odds that *no* chunk routes to the victim node
        # (which would let the job finish without exercising the loss
        # path) are negligible.
        spec = JobSpec(
            case="C1",
            teams=(64, 128, 256),
            v=(2, 4),
            threads=(32, 64),
            trials=5,
            checkpoint_interval=1,
            shard_records=4,
        )
    report = NodeKillReport(
        seed=seed,
        nodes_requested=max(1, nodes),
        points_total=spec.total_points(),
    )
    started = time.perf_counter()
    deadline = started + timeout_s
    loop = asyncio.get_running_loop()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-node-") as tmp:
        root = Path(tmp)
        truth_dir = root / "truth"
        executor = SweepExecutor(machine, workers=1, cache=None)
        try:
            await loop.run_in_executor(
                None, run_job, truth_dir, spec, executor
            )
        finally:
            executor.close()

        settings = CoordinatorSettings(
            lease_s=1.0,
            grace_s=2.0,
            # Hedging keeps the storm clean while the victim is frozen
            # pre-kill: a forward stuck on it races the next candidate.
            hedge_delay_s=0.25,
            forward_timeout_s=10.0,
            jobs_dir=str(root / "jobs"),
            jobs_workers=1,
        )
        server = CoordinatorHTTPServer(
            machine, settings, host="127.0.0.1", port=0
        )
        before = server.registry.snapshot()
        await server.start()
        procs: List[Any] = []
        try:
            env = dict(os.environ)
            env.pop("REPRO_FAULTS", None)
            env["PYTHONPATH"] = (
                str(Path(__file__).resolve().parents[2])
                + os.pathsep + env.get("PYTHONPATH", "")
            ).rstrip(os.pathsep)
            command = [
                sys.executable, "-m", "repro", "--workers", "1",
                "--no-cache", *_machine_flags(machine),
                "node", "--coordinator", server.address,
                "--host", "127.0.0.1", "--port", "0", "--quiet",
            ]
            for _ in range(report.nodes_requested):
                procs.append(
                    subprocess.Popen(
                        command, env=env,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    )
                )
            join_deadline = time.perf_counter() + 60.0
            while time.perf_counter() < join_deadline:
                counts = server.state.membership.counts()
                report.nodes_joined = counts[ALIVE]
                if counts[ALIVE] >= report.nodes_requested:
                    break
                await asyncio.sleep(0.1)
            if report.nodes_joined < report.nodes_requested:
                report.wall_seconds = time.perf_counter() - started
                return report.finalize()

            storm_task = asyncio.ensure_future(
                run_chaos(
                    server.host, server.port, machine,
                    seed=seed,
                    duration_s=duration_s,
                    clients=clients,
                    unique_points=unique_points,
                    error_budget=error_budget,
                    recovery_slo_s=recovery_slo_s,
                    timeout_s=30.0,
                    preset=preset,
                )
            )
            # run_chaos computes its ground truth synchronously before
            # its first await, blocking the loop; this sleep resumes
            # once the storm is actually underway, so the job - and the
            # kill - genuinely overlap it.
            await asyncio.sleep(0.1)
            job_id = server.jobs.submit(spec)["id"]
            # Freeze the victim immediately (no await in between: the
            # job thread has barely started).  The first chunk the ring
            # routes to it now hangs in flight, pinning the job in
            # RUNNING until the kill - which makes "killed mid-job"
            # deterministic instead of a race against a fast sweep.
            import signal as _signal

            procs[0].send_signal(_signal.SIGSTOP)

            async def _kill_one_mid_job() -> None:
                while time.perf_counter() < deadline:
                    status = server.jobs.get(job_id)
                    state = (status or {}).get("state", "")
                    if state in ("RUNNING", "CHECKPOINTED"):
                        # Give the chunk destined for the frozen node
                        # time to be dispatched and hang.
                        await asyncio.sleep(0.5)
                        status = server.jobs.get(job_id)
                        report.job_state_at_kill = (
                            (status or {}).get("state", "")
                        )
                        procs[0].kill()
                        procs[0].wait()
                        report.kills += 1
                        return
                    if state in ("DONE", "FAILED", "CANCELLED"):
                        # Too late: the gate on job_state_at_kill fails.
                        report.job_state_at_kill = state
                        procs[0].kill()
                        procs[0].wait()
                        report.kills += 1
                        return
                    await asyncio.sleep(0.01)

            await _kill_one_mid_job()
            storm_report = await storm_task
            report.storm = storm_report.to_dict()

            # Lease + grace at these settings is ~2.5 s; the storm
            # almost always outlives detection, but don't race it.
            loss_deadline = time.perf_counter() + 4.0 * (
                settings.lease_s + settings.grace_s
            )
            while time.perf_counter() < loss_deadline:
                if server.state.membership.counts()[DEAD] >= 1:
                    report.node_loss_detected = True
                    break
                await asyncio.sleep(0.1)

            def _wait_job() -> Optional[Dict[str, Any]]:
                return server.jobs.wait(
                    job_id, max(1.0, deadline - time.perf_counter())
                )

            status = await loop.run_in_executor(None, _wait_job)
            for _ in range(3):
                if (status or {}).get("state") == "DONE":
                    break
                if time.perf_counter() >= deadline:
                    break
                report.resumes += 1
                server.jobs.resume(job_id)
                status = await loop.run_in_executor(None, _wait_job)
            report.points_done = int((status or {}).get("points_done", 0))
            report.completed = (status or {}).get("state") == "DONE"
            if report.completed:
                verdict = _compare_job_dirs(
                    truth_dir, server.jobs.directory_for(job_id)
                )
                report.wrong_points = verdict["wrong_points"]
                report.duplicated_points = verdict["duplicated_points"]
                report.missing_points = verdict["missing_points"]
                report.byte_identical = verdict["byte_identical"]

            after = server.registry.snapshot()

            def delta(name: str) -> int:
                return (_counter_total(after, name)
                        - _counter_total(before, name))

            report.chunks_remote = delta("cluster.chunks_remote")
            report.chunks_local = delta("cluster.chunks_local")
            report.chunks_reassigned = delta("cluster.chunks_reassigned")
            report.chunk_conflicts = delta("cluster.chunk_conflicts")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            await server.stop()
    report.wall_seconds = time.perf_counter() - started
    report.finalize()
    if report.violations:
        recorder = flight()
        recorder.record(
            "chaos", "node_kill_violation",
            seed=seed, violations=list(report.violations),
        )
        recorder.dump(
            "chaos_violation", scenario="node-kill", seed=seed,
            violations=list(report.violations),
        )
    return report


async def run_chaos(
    host: str,
    port: int,
    machine: Any,
    seed: int = 7,
    duration_s: float = 20.0,
    clients: int = 8,
    unique_points: int = 6,
    client_faults: Optional[str] = None,
    error_budget: float = 0.01,
    recovery_slo_s: float = 10.0,
    timeout_s: float = 30.0,
    preset: str = "small",
) -> ChaosReport:
    """Storm ``host:port`` for ``duration_s`` and assert the invariants."""
    pool = preset_pool(preset, unique_points)
    truth = compute_truth(machine, pool)
    plan = (
        FaultPlan.parse(
            client_faults
            if "seed=" in client_faults
            else f"seed={seed};{client_faults}"
        )
        if client_faults else None
    )
    report = ChaosReport(
        seed=seed,
        duration_s=duration_s,
        error_budget=error_budget,
        recovery_slo_s=recovery_slo_s,
    )
    started = time.perf_counter()
    deadline = started + duration_s
    workers = [
        _ChaosClient(
            host, port, i, seed, pool, truth, plan, report, timeout_s
        )
        for i in range(max(1, clients))
    ]
    await asyncio.gather(*(w.run_until(deadline) for w in workers))
    report.wall_seconds = time.perf_counter() - started
    report.recovered, report.recovery_seconds = await _probe_recovery(
        host, port, pool, recovery_slo_s, timeout_s
    )
    await _collect_metrics(host, port, report)
    report.finalize()
    if report.violations:
        recorder = flight()
        recorder.record(
            "chaos", "invariant_violation",
            seed=seed, violations=list(report.violations),
        )
        recorder.dump(
            "chaos_violation",
            seed=seed,
            violations=list(report.violations),
            error_rate=report.error_rate,
            wrong_results=report.wrong_results,
        )
    return report
