#!/usr/bin/env python3
"""Regenerate ``expected.json``, the output digests the benchmark pins.

    python3 perfbench/pin.py

Run it from the root of a checkout, only when the simulated outputs are
meant to change.  It prices every point of the serve universe and of the job
once through the executor's public ``run`` (serial, uncached), and runs
one cold paper pass through ``examples/reproduce_paper.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import inputs  # noqa: E402
import run as bench  # noqa: E402


def serve_digests(executor) -> dict:
    from repro.service.api import parse_request, summarize_record
    from repro.service.loadgen import preset_pool

    preset = [parse_request(doc).payload() for doc in preset_pool("fig1")]
    hot = [parse_request(json.loads(inputs.structured_body(p))).payload()
           for p in inputs.HOT_POOL]
    if hot != preset:
        raise SystemExit("inputs.HOT_POOL is not the loadtest fig1 pool")
    points = inputs.serve_universe()
    if not set(inputs.HOT_POOL) <= set(points):
        raise SystemExit("the hot pool lies outside the serve universe")
    requests = [parse_request(json.loads(inputs.structured_body(p)))
                for p in points]
    for point, request in zip(points, requests):
        twin = parse_request(json.loads(inputs.directive_body(point)))
        if twin.payload() != request.payload():
            raise SystemExit(f"directive form of {point} is another point")
    records = executor.run("gpu_point", [r.payload()[1] for r in requests],
                           "pin-serve")
    return {
        inputs.serve_key(point): inputs.digest(json.loads(json.dumps(
            summarize_record(request, record))))
        for point, request, record in zip(points, requests, records)
    }


def job_digests(executor) -> dict:
    from repro.jobs import parse_job_spec

    grid = inputs.JobGrid(inputs.JOB_TEAMS, inputs.JOB_V, inputs.JOB_THREADS,
                          pause=0)
    spec = parse_job_spec({"case": inputs.JOB_CASE,
                           "teams": list(grid.teams), "v": list(grid.v),
                           "threads": list(grid.threads),
                           "trials": inputs.JOB_TRIALS,
                           "verify": inputs.JOB_VERIFY})
    machine = executor.machine_fingerprint
    if spec.points_digest(machine) != grid.points_digest(machine):
        raise SystemExit("inputs.JobGrid.points_digest is not the "
                         "program's JobSpec.points_digest")
    records = executor.run("gpu_point", list(spec.payloads()), "pin-job")
    return {
        "machine": machine,
        "records_sha256": inputs.records_digest(
            f"{inputs.job_key(*point)}={inputs.digest(record)}"
            for point, record in zip(grid.points(), records)),
    }


def paper_digests() -> dict:
    run = bench.Run(argparse.Namespace(workload="pin", seed=0, seconds=0,
                                       trace=0))
    try:
        report = bench.paper_leg(run, run.dir / "cache")
    finally:
        run.close()
    if report["exit"] or report["checks_failed"]:
        raise SystemExit("the paper pass failed; nothing pinned")
    return {"records_sha256": report["records_sha256"],
            "text_sha256": report["text_sha256"],
            "records": report["records"]}


def main() -> int:
    from repro import Machine
    from repro.sweep import SweepExecutor

    executor = SweepExecutor(Machine(), workers=1, cache=None)
    doc = {
        "paper": paper_digests(),
        "serve": serve_digests(executor),
        "job": job_digests(executor),
    }
    path = HERE / "expected.json"
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(doc['serve'])} serve points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
