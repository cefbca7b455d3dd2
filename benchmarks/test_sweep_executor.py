"""Microbenchmarks of the sweep executor itself (not a paper artifact).

Times the three executor modes on one Figure-1-style sweep — cold serial,
cold pool (under a task deadline, one point per task), and warm
persistent cache — and checks the contract that makes the speed safe:
every mode returns bit-identical records, and the warm run serves every
point from cache.

No parallel-speedup assertion is made (CI runners may expose one core);
the cache assertions are the load-bearing ones.  Run with ``-s`` to see
the timing table.
"""

from __future__ import annotations

import time

import pytest

from repro import Machine, ReproConfig
from repro.core.cases import C1
from repro.core.optimized import KernelConfig
from repro.core.tuning import TEAMS_GRID, V_GRID
from repro.sweep import ResultCache, SweepExecutor
from repro.telemetry.state import metrics
from repro.util.tables import AsciiTable

TRIALS = 20

CONFIGS = [
    KernelConfig(teams=teams, v=v)
    for teams in TEAMS_GRID
    for v in V_GRID
    if teams >= v and C1.elements % v == 0
]

_timings: dict = {}


def _pickled_bytes():
    return metrics().value("sweep.payload_bytes", transport="pickle") or 0


@pytest.fixture(scope="module")
def machine() -> Machine:
    return Machine(config=ReproConfig(functional_elements_cap=1 << 16))


@pytest.fixture(scope="module")
def serial_records(machine):
    """Reference sweep: cold, serial, uncached — the seed behaviour."""
    start = time.perf_counter()
    records = SweepExecutor(machine, workers=1, cache=None).gpu_points(
        C1, CONFIGS, trials=TRIALS, verify=False
    )
    _timings["serial cold"] = time.perf_counter() - start
    return records


def test_serial_sweep(benchmark, machine, serial_records):
    records = benchmark.pedantic(
        lambda: SweepExecutor(machine, workers=1, cache=None).gpu_points(
            C1, CONFIGS, trials=TRIALS, verify=False
        ),
        rounds=1, iterations=1,
    )
    assert records == serial_records


def test_parallel_sweep_matches_serial(benchmark, machine, serial_records):
    # Without a deadline a gpu_point stage is priced in-process whatever
    # the worker count; a deadline sends each point to the pool.
    def sweep():
        executor = SweepExecutor(machine, workers=2, cache=None,
                                 task_timeout_s=60.0)
        try:
            return executor.gpu_points(
                C1, CONFIGS, trials=TRIALS, verify=False
            )
        finally:
            executor.close()

    pickled = _pickled_bytes()
    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _timings["pool cold (2 workers, deadline)"] = benchmark.stats.stats.mean
    assert _pickled_bytes() > pickled
    assert records == serial_records


def test_warm_cache_faster_than_cold(benchmark, machine, serial_records,
                                     tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("sweep-bench-cache")

    start = time.perf_counter()
    cold = SweepExecutor(machine, workers=1, cache=ResultCache(cache_dir)
                         ).gpu_points(C1, CONFIGS, trials=TRIALS, verify=False)
    cold_seconds = time.perf_counter() - start
    _timings["cached cold"] = cold_seconds
    assert cold == serial_records

    def warm_sweep():
        ex = SweepExecutor(machine, workers=1, cache=ResultCache(cache_dir))
        records = ex.gpu_points(C1, CONFIGS, trials=TRIALS, verify=False)
        return ex, records

    ex, warm = benchmark.pedantic(warm_sweep, rounds=3, iterations=1)
    warm_seconds = benchmark.stats.stats.mean
    _timings["cached warm"] = warm_seconds

    # The safety contract: identical numbers, every point a cache hit.
    assert warm == serial_records
    stage = ex.stats.stage("gpu-sweep")
    assert stage.cache_hits == len(CONFIGS)
    assert stage.computed == 0
    assert warm_seconds < cold_seconds


def teardown_module(module):
    table = AsciiTable(["mode", "seconds", "points/s"])
    for mode, seconds in _timings.items():
        table.add_row([mode, f"{seconds:.4f}",
                       f"{len(CONFIGS) / seconds:.0f}" if seconds else "-"])
    print()
    print(f"sweep executor microbench: {len(CONFIGS)} points, "
          f"trials={TRIALS}, case={C1.name}")
    print(table.render())
