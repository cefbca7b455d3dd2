"""Seeded inputs for the serve and job workloads, and the output digests.

The program only sees what these functions generate from the workload
seed.  The serve universe and the job's points are fixed, so the digests
pinned in ``expected.json`` cover every input any seed can draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple

CASES = ("C1", "C2", "C3", "C4")
#: The paper's Figure-1 axes (``repro.core.tuning.TEAMS_GRID``/``V_GRID``).
FIG1_TEAMS = tuple(1 << k for k in range(7, 17))
FIG1_V = tuple(1 << k for k in range(0, 6))
#: Thread limits the serve mix varies, so enough points stay fresh.
SERVE_THREADS = (64, 128, 256, 512, 1024)

#: The job's points: C1 over the Figure-1 teams, V 1-8 and every thread
#: limit from 32 to 1024, 10 x 4 x 993 = 39720 points, the same for
#: every seed.  The seed orders each axis and picks where the first
#: leg pauses, so each seed writes a stream of its own at the same cost.
JOB_TEAMS = FIG1_TEAMS
JOB_V = (1, 2, 4, 8)
JOB_THREADS = tuple(range(32, 1025))
#: The job's other spec fields; ``repro job run`` verifies nothing by
#: default.
JOB_CASE = "C1"
JOB_TRIALS = 200
JOB_VERIFY = False

ServePoint = Tuple[str, int, int, int]  # case, teams, v, threads


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(obj) -> str:
    """Short digest of *obj* under canonical JSON."""
    return hashlib.sha256(canonical(obj)).hexdigest()[:16]


def serve_universe() -> List[ServePoint]:
    return [(case, teams, v, threads)
            for case in CASES for teams in FIG1_TEAMS for v in FIG1_V
            for threads in SERVE_THREADS if teams >= v]


def serve_key(point: ServePoint) -> str:
    return "/".join(str(part) for part in point)


def structured_body(point: ServePoint) -> bytes:
    case, teams, v, threads = point
    return canonical({"case": case, "teams": teams, "v": v,
                      "threads": threads})


def directive_body(point: ServePoint) -> bytes:
    """The same point as an OpenMP pragma (``num_teams`` is teams / V)."""
    case, teams, v, threads = point
    pragma = ("#pragma omp target teams distribute parallel for "
              f"num_teams({teams // v}) thread_limit({threads}) "
              "reduction(+:sum)")
    return canonical({"case": case, "directive": pragma, "v": v})


#: The hot pool is the request pool of the repository's own load test,
#: ``repro loadtest --preset fig1`` (``repro.service.loadgen.preset_pool``
#: at its default of 12 unique points): C1 over the first twelve points
#: of that preset's teams x V grid, at the server's default 200 trials
#: and 256 threads.  It is copied rather than imported, so a change to
#: the load generator cannot change the benchmark's inputs; ``pin.py``
#: checks the copy against the original.
HOT_POOL: Tuple[ServePoint, ...] = tuple(
    ("C1", teams, v, 256) for teams in (1024, 4096, 16384)
    for v in (1, 2, 4, 8))

#: Points that compute come from fixed lists, the same for every seed, so
#: every run prices the same work: one point's pricing cost ranges over
#: two orders of magnitude, so a seeded draw would move the figures more
#: than the program does.  The seed decides when each point arrives.
#: COLD_POINTS float points are timed one at a time; COMPUTE_POINTS
#: other float points are sent with many in flight; FRESH_POINTS more, of
#: every case, are mixed into the open-loop phases in list order.
COLD_POINTS = 96
COMPUTE_POINTS = 128
FRESH_POINTS = 600


def _split_universe():
    points = serve_universe()
    random.Random(0x5C2024).shuffle(points)
    points = [p for p in points if p not in HOT_POOL]
    floats = [p for p in points if p[0] in ("C3", "C4")]
    cold = floats[:COLD_POINTS]
    compute = floats[COLD_POINTS:COLD_POINTS + COMPUTE_POINTS]
    taken = set(cold) | set(compute)
    rest = [p for p in points if p not in taken]
    return cold, compute, rest[:FRESH_POINTS]


@dataclass
class ServeMix:
    """The seeded request stream: the hot pool plus never-repeated points."""

    seed: int
    hot: List[ServePoint] = field(init=False)
    _cold: List[ServePoint] = field(init=False)
    _compute: List[ServePoint] = field(init=False)
    _fresh: List[ServePoint] = field(init=False)
    _rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._cold, self._compute, fresh = _split_universe()
        self.hot = list(HOT_POOL)
        self._fresh = fresh[::-1]  # popped from the end, in list order

    def cold(self) -> List[Tuple[bytes, ServePoint]]:
        """The cold points, in seeded order."""
        return self._shuffled(self._cold)

    def compute(self) -> List[Tuple[bytes, ServePoint]]:
        """The compute points, in seeded order."""
        return self._shuffled(self._compute)

    def _shuffled(self, points: List[ServePoint]
                  ) -> List[Tuple[bytes, ServePoint]]:
        points = list(points)
        self._rng.shuffle(points)
        return [(structured_body(point), point) for point in points]

    def warm(self, count: int) -> List[Tuple[bytes, ServePoint]]:
        """*count* hot-pool points drawn with replacement in seeded order,
        as ``repro loadtest`` draws them."""
        points = [self._rng.choice(self.hot) for _ in range(count)]
        return [(structured_body(point), point) for point in points]

    def phase(self, rate: float, count: int, fresh: int,
              directive_share: float) -> List[Tuple[float, bytes, ServePoint]]:
        """*count* requests due at random over ``count / rate`` seconds.

        Uniform order statistics: Poisson arrivals conditioned on the
        count, so every phase lasts as long as its rate says.  *fresh*
        of them, at seeded positions, are the next unsent points of the
        fixed fresh list, so they always compute; the rest repeat the
        hot pool.  Each entry is ``(due offset s, body, point)``.
        """
        rng = self._rng
        dues = sorted(rng.uniform(0.0, count / rate) for _ in range(count))
        fresh_at = set(rng.sample(range(count), min(fresh, count)))
        out = []
        for i, due in enumerate(dues):
            if i in fresh_at and self._fresh:
                point = self._fresh.pop()
            else:
                point = rng.choice(self.hot)
            body = (directive_body(point) if rng.random() < directive_share
                    else structured_body(point))
            out.append((due, body, point))
        return out


@dataclass(frozen=True)
class JobGrid:
    """The job's axes in seeded order, and where its first leg pauses."""

    teams: Tuple[int, ...]
    v: Tuple[int, ...]
    threads: Tuple[int, ...]
    pause: int

    @classmethod
    def from_seed(cls, seed: int) -> "JobGrid":
        rng = random.Random(seed)
        axes = []
        for axis in (JOB_TEAMS, JOB_V, JOB_THREADS):
            axis = list(axis)
            rng.shuffle(axis)
            axes.append(tuple(axis))
        total = len(JOB_TEAMS) * len(JOB_V) * len(JOB_THREADS)
        return cls(*axes, pause=rng.randrange(total * 2 // 5,
                                              total * 3 // 5))

    @property
    def total(self) -> int:
        return len(self.teams) * len(self.v) * len(self.threads)

    def points(self) -> Iterator[Tuple[int, int, int]]:
        """``(teams, v, threads)`` in the job's nested order."""
        for teams in self.teams:
            for v in self.v:
                for threads in self.threads:
                    yield teams, v, threads

    def points_digest(self, machine: str) -> str:
        """What the job's manifest must give as its ``points_digest``.

        SHA-256 over the per-point digests in order, each the first 16
        hex digits of the SHA-256 of the point's canonical JSON document,
        written out here from ``JobSpec.point_digests`` so that the
        check does not run the program's own code.
        """
        sha = hashlib.sha256()
        for teams, v, threads in self.points():
            point = hashlib.sha256(canonical({
                "kind": "gpu_point", "machine": machine, "case": JOB_CASE,
                "teams": teams, "v": v, "threads": threads,
                "trials": JOB_TRIALS, "verify": JOB_VERIFY,
            })).hexdigest()[:16]
            sha.update(point.encode() + b"\n")
        return sha.hexdigest()


def job_key(teams: int, v: int, threads: int) -> str:
    return f"{teams}/{v}/{threads}"


def records_digest(lines: Iterable[str]) -> str:
    """Digest of ``key=record digest`` lines, whatever their order: the
    same for every seed's ordering of the job's points."""
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def csv(values) -> str:
    return ",".join(str(value) for value in values)


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
