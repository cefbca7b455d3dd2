#!/usr/bin/env python3
"""Full reproduction driver: regenerate every table and figure.

Prints Table 1, the four Figure 1 panels, Figures 2a/2b/3/4a/4b/5, the
Section IV aggregates, and the DESIGN.md §3 shape-check report — the whole
paper in one run — then the sweep executor's instrumentation (per-stage
wall time, cache hit/miss counters, points/sec).

Every sweep goes through :class:`repro.sweep.SweepExecutor`:

* ``--workers N`` sizes the process pool that co-execution sweeps and
  runs with a task timeout use (default: ``REPRO_SWEEP_WORKERS``, else
  serial — the seed behaviour); ``gpu_point``s are otherwise priced
  in-process;
* results persist in a JSON cache (``--cache-dir``, default
  ``REPRO_CACHE_DIR`` else ``~/.cache/repro-sweep``), so a warm re-run
  skips every already-computed point; ``--no-cache`` disables it.

``--workers 1 --no-cache`` reproduces the original serial output exactly.

``--trace-out FILE`` switches on the telemetry layer (spans over the
compiler, OpenMP runtime, simulator and sweep executor; a metrics
registry) and writes the run's Chrome-trace timeline — open it in
ui.perfetto.dev.  See docs/OBSERVABILITY.md.

Run:  python examples/reproduce_paper.py [--workers auto]
"""

import argparse
import time

from repro import Machine, ReproConfig
from repro.core.cases import PAPER_CASES
from repro.core.coexec import AllocationSite
from repro.evaluation.figures import (
    chart_coexec_figure,
    chart_figure1,
    generate_coexec_figure,
    generate_figure1,
    generate_speedup_figure,
    render_coexec_figure,
    render_figure1,
    render_speedup_figure,
)
from repro.evaluation.report import full_report
from repro.evaluation.tables import generate_table1, render_table1
from repro.sweep import SweepExecutor, open_result_cache
from repro.telemetry import (
    configure as configure_telemetry,
    get_telemetry,
    publish_counts,
    render_summary,
    span,
    write_chrome_trace,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", default=None,
                        help="sweep pool width (int or 'auto'; default: "
                             "REPRO_SWEEP_WORKERS, else serial); the pool "
                             "serves co-execution sweeps and runs with a "
                             "task timeout, and gpu_points are otherwise "
                             "priced in-process")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point (disable the result cache)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                             "REPRO_CACHE_DIR, else ~/.cache/repro-sweep)")
    parser.add_argument("--functional-cap", type=int, metavar="N",
                        default=None,
                        help="cap functionally-executed elements per "
                             "workload (performance numbers unaffected)")
    parser.add_argument("--task-timeout", metavar="SECONDS", default=None,
                        help="wall-clock budget per sweep point; points "
                             "over budget are recorded failed and the "
                             "sweep continues (default: "
                             "REPRO_SWEEP_TIMEOUT, else none; 0 disables)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="enable telemetry and write a Chrome-trace "
                             "timeline to FILE (open in ui.perfetto.dev)")
    args = parser.parse_args()

    if args.trace_out:
        configure_telemetry(enabled=True)

    start = time.perf_counter()
    config_kwargs = {}
    if args.functional_cap is not None:
        config_kwargs["functional_elements_cap"] = args.functional_cap
    config = ReproConfig(**config_kwargs)
    machine = Machine(config=config)
    cache = open_result_cache(args.cache_dir, enabled=not args.no_cache)
    executor = SweepExecutor(machine, workers=args.workers, cache=cache,
                             task_timeout_s=args.task_timeout)
    print(f"machine: {machine.describe()}")
    print(f"executor: {executor.stats.mode}, "
          f"cache {'off' if cache is None else f'at {cache.directory}'}\n")

    with span("reproduce_paper", category="cli"):
        _run(machine, executor)

    print()
    print("=" * 72)
    print("Sweep executor instrumentation")
    print("=" * 72)
    print(executor.stats.render())
    if cache is not None:
        print(cache.describe())
    print(f"total wall time: {time.perf_counter() - start:.2f} s")

    if args.trace_out:
        telemetry = get_telemetry()
        publish_counts(telemetry.registry, machine.trace, cache)
        print()
        print(render_summary(telemetry.recorder.snapshot(),
                             telemetry.registry))
        path = write_chrome_trace(
            args.trace_out, trace=machine.trace, registry=telemetry.registry
        )
        print(f"chrome trace written to {path} (open in ui.perfetto.dev)")


def _run(machine: Machine, executor: SweepExecutor) -> None:
    """Print every table and figure (the reproduction proper)."""
    print("=" * 72)
    print("Table 1 (measured vs paper)")
    print("=" * 72)
    print(render_table1(generate_table1(machine, executor=executor)))

    for case in PAPER_CASES:
        print()
        print("=" * 72)
        fig1 = generate_figure1(machine, case, executor=executor)
        print(render_figure1(fig1))
        print()
        print(chart_figure1(fig1))

    figures = {}
    for site in (AllocationSite.A1, AllocationSite.A2):
        for optimized in (False, True):
            fig = generate_coexec_figure(
                machine, PAPER_CASES, site, optimized, verify=False,
                executor=executor,
            )
            figures[(site, optimized)] = fig
            print()
            print("=" * 72)
            print(render_coexec_figure(fig))
            print()
            print(chart_coexec_figure(fig))

    for site, fig_name in ((AllocationSite.A1, "3"), (AllocationSite.A2, "5")):
        fig = generate_speedup_figure(
            figures[(site, False)], figures[(site, True)]
        )
        print()
        print("=" * 72)
        print(render_speedup_figure(fig))

    print()
    print("=" * 72)
    print("Shape-check report (DESIGN.md §3 criteria)")
    print("=" * 72)
    print(full_report(machine, executor=executor))


if __name__ == "__main__":
    main()
