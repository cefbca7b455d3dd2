"""Run one leg of a workload in this process and report what it saw.

    python perfbench/launch.py OUT.json [--trace] example ARGS...
    python perfbench/launch.py OUT.json [--trace] cli ARGS...

``example`` runs ``examples/reproduce_paper.py ARGS`` as ``__main__``;
``cli`` calls ``repro.cli.main(ARGS)``, the entry point of ``python -m
repro``.  The modules the program would import lazily on its first
operation (the executor's slab and pool, and ``repro.jobs`` for ``repro
job``) are imported first, traced or not, so that import counts in
set-up in both kinds of leg alike.

A few cheap hooks are always installed: the end of the first
``SweepExecutor.__init__`` marks the program ready (set-up ends there);
the first ``SweepExecutor.run`` marks its first operation; in
``example`` mode ``run`` also keeps references to the records it
returns, digested only after the leg; ``SweepExecutor.close`` reads the
peak memory of pool workers before they exit.  With ``--trace`` the
layer wrappers of :mod:`tracing` are installed as well.

OUT.json gets the ready and end times (``time.perf_counter``, which is
CLOCK_MONOTONIC and so comparable with the parent's clock), the peak
resident memory summed over this process and its children, the record
digest, and, when traced, the raw spans.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Recorder, clock, install  # noqa: E402

#: What the executor imports inside its first slab or pool run.
LAZY = ("repro.sim.batch", "repro.sweep.shm", "repro.faults.supervisor")
#: What a CLI subcommand imports once the executor exists.
LAZY_BY_COMMAND = {"job": ("repro.jobs",)}


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _sample_children(peaks: dict) -> None:
    """Fold each live child's peak resident memory into *peaks*."""
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children",
                      encoding="ascii") as fh:
                pids = fh.read().split()
        except OSError:
            continue
        for pid in pids:
            peaks[pid] = max(peaks.get(pid, 0), _vm_hwm_kb(pid))


def main(argv: list) -> int:
    out = Path(argv[0])
    rest = argv[1:]
    traced = rest[:1] == ["--trace"]
    if traced:
        rest = rest[1:]
    mode, args = rest[0], rest[1:]

    command = next((a for a in args if a in LAZY_BY_COMMAND), None) \
        if mode == "cli" else None
    for name in LAZY + LAZY_BY_COMMAND.get(command, ()):
        importlib.import_module(name)
    from repro.sweep.executor import SweepExecutor

    recorder = None
    if traced:
        recorder = Recorder()
        install(recorder)
    state = {"ready": None, "first_run": None, "records": [],
             "child_kb": {}}
    keep_records = mode == "example"
    # Captured after the tracing wrappers are in, so the record capture
    # sits outside the traced span and is not counted in it.
    init, run, close = (SweepExecutor.__init__, SweepExecutor.run,
                        SweepExecutor.close)

    def hooked_init(self, *a, **kw):
        init(self, *a, **kw)
        if state["ready"] is None:
            state["ready"] = clock()

    def hooked_run(self, kind, payloads, stage):
        if state["first_run"] is None:
            state["first_run"] = clock()
        records = run(self, kind, payloads, stage)
        if keep_records:
            state["records"].append(records)
        return records

    def hooked_close(self):
        _sample_children(state["child_kb"])
        close(self)

    SweepExecutor.__init__ = hooked_init
    SweepExecutor.run = hooked_run
    SweepExecutor.close = hooked_close

    if mode == "example":
        sys.argv = ["examples/reproduce_paper.py"] + args
        runpy.run_path("examples/reproduce_paper.py", run_name="__main__")
        code = 0
    else:
        from repro.cli import main as cli_main

        code = cli_main(args)
    end = clock()
    sys.stdout.flush()

    _sample_children(state["child_kb"])
    sha = hashlib.sha256()
    count = 0
    for records in state["records"]:
        for record in records:
            sha.update(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")).encode())
            sha.update(b"\n")
            count += 1
    doc = {
        "code": code,
        "ready": state["ready"],
        "first_run": state["first_run"],
        "end": end,
        "rss_kb": _vm_hwm_kb("self") + sum(state["child_kb"].values()),
        "records_sha256": sha.hexdigest(),
        "records": count,
        "failed_records": sum(
            1 for records in state["records"] for r in records
            if isinstance(r, dict) and r.get("failed")
        ),
    }
    if recorder is not None:
        doc["trace"] = recorder.dump()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
