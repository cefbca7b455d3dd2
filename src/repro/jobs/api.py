"""Typed job specs and API documents for the job-lifecycle front end.

A :class:`JobSpec` describes one streaming sweep job as the cartesian
grid ``teams x v x threads`` over a paper case — the shape
``reproduce_paper.py`` sweeps, scaled to grids that no longer fit one
process's memory or lifetime.  Points enumerate lazily in a fixed
nested order (teams outermost, threads innermost), so a million-point
job costs a few lists of axis values in its spec, never a million
payloads in memory, and every restart replays the identical sequence.

Parsing mirrors :mod:`repro.service.api`: strict types and bounds,
unknown fields rejected loudly (a typo'd ``"trails"`` must never turn
into a silently-default job), everything raising
:class:`~repro.errors.SpecError` which the HTTP layer maps to 400.

Identity: ``spec_digest`` is the :func:`repro.verify.fuzzer.case_digest`
of the spec document, and a job id folds in the machine fingerprint —
submitting the same spec to the same machine is idempotent (you get the
existing job back, resumable), while a changed grid or config is a new
job.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from ..core.cases import PAPER_CASES, case_by_name
from ..core.optimized import KernelConfig
from ..errors import SpecError
from ..openmp.reduction_ops import (
    ALL_REDUCTION_IDENTIFIERS,
    validate_reduction,
)
from ..sweep.fingerprint import canonical_json
from ..verify.fuzzer import CASE_DIGEST_LEN, case_digest

#: Matches :data:`repro.service.api.MAX_TRIALS` (not imported: the
#: service layer imports this package for its job routes, and a
#: module-level import back would cycle).
MAX_TRIALS = 100_000

__all__ = ["JobSpec", "parse_job_spec"]

#: Ceiling on total points per job — a backstop against a typo'd grid,
#: far above the "1000x reproduce_paper.py" target scale.
MAX_POINTS = 100_000_000

#: Ceiling on entries per axis list.
_MAX_AXIS = 65536

#: teams/v must be powers of two <= this (the simulator's launch bound).
_MAX_TEAMS = 1 << 26

_CASE_NAMES = tuple(case.name for case in PAPER_CASES)


def _is_pow2(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class JobSpec:
    """One durable streaming-sweep job (validated, immutable)."""

    case: str = "C1"
    teams: Tuple[int, ...] = (4096,)
    v: Tuple[int, ...] = (4,)
    threads: Tuple[int, ...] = (256,)
    trials: int = 200
    verify: bool = False
    checkpoint_interval: int = 1024
    shard_records: int = 8192
    label: str = ""
    archive: bool = False
    op: str = "+"

    # -- documents ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "case": self.case,
            "teams": list(self.teams),
            "v": list(self.v),
            "threads": list(self.threads),
            "trials": self.trials,
            "verify": self.verify,
            "checkpoint_interval": self.checkpoint_interval,
            "shard_records": self.shard_records,
            "label": self.label,
            "archive": self.archive,
        }
        # Emitted only for extended identifiers: resumable sum jobs on
        # disk keep their spec digests (and therefore their job ids).
        if self.op != "+":
            doc["op"] = self.op
        return doc

    @property
    def spec_digest(self) -> str:
        return case_digest(self.to_dict())

    def job_id(self, machine_fingerprint: str) -> str:
        """Deterministic job id: same spec + same machine -> same job."""
        return "j" + case_digest(
            {"spec": self.to_dict(), "machine": machine_fingerprint}
        )

    # -- enumeration ----------------------------------------------------------
    def total_points(self) -> int:
        return len(self.teams) * len(self.v) * len(self.threads)

    def points(self, start: int = 0) -> Iterator[Tuple[int, int, int]]:
        """Lazy ``(teams, v, threads)`` tuples in canonical nested order,
        from point index *start* on."""
        return itertools.islice(
            itertools.product(self.teams, self.v, self.threads), start, None
        )

    def payloads(self, start: int = 0) -> Iterator[tuple]:
        """Lazy ``gpu_point`` executor payloads in point order, from point
        index *start* on (no skipped point builds a ``KernelConfig``).

        Sum jobs build the historical 4-tuples (cache-fingerprint
        stable); extended identifiers append the op element.
        """
        case = case_by_name(self.case)
        for teams, v, threads in self.points(start):
            base = (
                case,
                KernelConfig(teams=teams, v=v, threads=threads),
                self.trials,
                self.verify,
            )
            yield base if self.op == "+" else base + (self.op,)

    def point_digests(
        self, machine_fingerprint: str, start: int = 0
    ) -> Iterator[str]:
        """Lazy canonical per-point digests (the checkpoint/resume key),
        from point index *start* on.

        Each is the public :func:`repro.verify.fuzzer.case_digest` of
        the point's full parameter document, including the machine
        fingerprint — a resumed job on a reconfigured machine mismatches
        on the very first line instead of splicing incompatible results.
        The document's sorted keys are ``case, kind, machine[, op],
        teams, threads, trials, v, verify``; the canonical JSON before
        ``teams`` is the same for every point, so it is hashed once and
        each point copies that hash state and feeds only its own tail.
        """
        head: Dict[str, Any] = {
            "case": self.case,
            "kind": "gpu_point",
            "machine": machine_fingerprint,
        }
        if self.op != "+":
            head["op"] = self.op
        prefix = hashlib.sha256(
            (canonical_json(head)[:-1] + ',"teams":').encode()
        )
        tail = ('%%d,"threads":%%d,"trials":%d,"v":%%d,"verify":%s}'
                % (self.trials, canonical_json(self.verify))).encode()
        for teams, v, threads in self.points(start):
            sha = prefix.copy()
            sha.update(tail % (teams, threads, v))
            yield sha.hexdigest()[:CASE_DIGEST_LEN]

    def points_digest(self, machine_fingerprint: str) -> str:
        """SHA-256 over the whole per-point digest stream (incremental).

        The manifest's canonical case-list digest: computed streamingly
        so a 100M-point job never materializes its point list.
        """
        sha = hashlib.sha256()
        for digest in self.point_digests(machine_fingerprint):
            sha.update(digest.encode("ascii"))
            sha.update(b"\n")
        return sha.hexdigest()


def _int_list(value: Any, name: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise SpecError(f"{name} must be a non-empty list of integers")
    if len(value) > _MAX_AXIS:
        raise SpecError(
            f"{name} has {len(value)} entries (max {_MAX_AXIS})"
        )
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise SpecError(f"{name} entries must be integers, got {entry!r}")
        out.append(entry)
    return tuple(out)


def _int_field(value: Any, name: str, lo: int, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise SpecError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


_FIELDS = frozenset(
    (
        "case", "teams", "v", "threads", "trials", "verify",
        "checkpoint_interval", "shard_records", "label", "archive", "op",
    )
)


def parse_job_spec(obj: Any) -> JobSpec:
    """Validate a JSON job-spec document into a :class:`JobSpec`."""
    if not isinstance(obj, dict):
        raise SpecError("job spec must be a JSON object")
    unknown = sorted(set(obj) - _FIELDS)
    if unknown:
        raise SpecError(
            f"unknown job spec fields {unknown}; expected a subset of "
            f"{sorted(_FIELDS)}"
        )
    case = obj.get("case", "C1")
    if case not in _CASE_NAMES:
        raise SpecError(
            f"case must be one of {list(_CASE_NAMES)}, got {case!r}"
        )
    teams = _int_list(obj.get("teams", [4096]), "teams")
    v = _int_list(obj.get("v", [4]), "v")
    threads = _int_list(obj.get("threads", [256]), "threads")
    for value in teams:
        if not _is_pow2(value) or value > _MAX_TEAMS:
            raise SpecError(
                f"teams entries must be powers of two <= {_MAX_TEAMS}, "
                f"got {value}"
            )
    for value in v:
        if not _is_pow2(value) or value > 64:
            raise SpecError(
                f"v entries must be powers of two <= 64, got {value}"
            )
    for value in threads:
        if not 1 <= value <= 1024:
            raise SpecError(
                f"threads entries must be in [1, 1024], got {value}"
            )
    if min(teams) < max(v):
        raise SpecError(
            f"every teams value must be >= every v value "
            f"(min teams {min(teams)} < max v {max(v)})"
        )
    label = obj.get("label", "")
    if not isinstance(label, str) or len(label) > 200:
        raise SpecError("label must be a string of at most 200 characters")
    verify = obj.get("verify", False)
    archive = obj.get("archive", False)
    if not isinstance(verify, bool) or not isinstance(archive, bool):
        raise SpecError("verify/archive must be booleans")
    op = obj.get("op", "+")
    if not isinstance(op, str):
        raise SpecError(f"op must be a string, got {op!r}")
    if op not in ALL_REDUCTION_IDENTIFIERS:
        raise SpecError(
            f"op must be one of {sorted(ALL_REDUCTION_IDENTIFIERS)}, "
            f"got {op!r}"
        )
    if op != "+":
        try:
            validate_reduction(op, case_by_name(case).result_type)
        except Exception as exc:
            raise SpecError(str(exc)) from exc
    spec = JobSpec(
        case=case,
        teams=teams,
        v=v,
        threads=threads,
        trials=_int_field(obj.get("trials", 200), "trials", 1, MAX_TRIALS),
        verify=verify,
        checkpoint_interval=_int_field(
            obj.get("checkpoint_interval", 1024),
            "checkpoint_interval", 1, 1_000_000,
        ),
        shard_records=_int_field(
            obj.get("shard_records", 8192), "shard_records", 1, 1_000_000
        ),
        label=label,
        archive=archive,
        op=op,
    )
    if spec.total_points() > MAX_POINTS:
        raise SpecError(
            f"grid has {spec.total_points()} points (max {MAX_POINTS})"
        )
    return spec
