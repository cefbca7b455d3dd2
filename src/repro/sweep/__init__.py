"""Parallel, cache-aware experiment execution (the sweep subsystem).

The paper is a parameter-sweep study: Figures 1a-1d alone cover
4 cases x 10 team counts x 6 V values, and the co-execution figures sweep
an 11-point CPU-partition grid per case on top.  This package turns the
sweep driver itself into engineered infrastructure:

* :class:`~repro.sweep.executor.SweepExecutor` — prices ``gpu_point``
  stages in-process as one slab, and fans co-execution sweeps (and every
  point under a task deadline) out over a process pool with
  deterministic collation (``workers=1`` is the exact serial seed path);
* :mod:`~repro.sweep.result_cache` — persistent JSON result cache keyed
  by a fingerprint of (machine calibration + config, experiment kind,
  parameter point, trials);
* :mod:`~repro.sweep.fingerprint` — the content-addressing scheme (a
  calibration change invalidates every dependent entry);
* :mod:`~repro.sweep.instrumentation` — per-stage wall time, hit/miss
  counters and points/sec, surfaced by the report and the reproduction
  driver.

The compilation cache lives one layer down, in
:mod:`repro.compiler.cache`, and is shared by every sweep point.
"""

from .executor import (
    CoexecRequest,
    MachineSpec,
    SweepExecutor,
    WORKERS_ENV,
    resolve_workers,
)
from .fingerprint import CACHE_VERSION, canonical_json, fingerprint
from .instrumentation import StageStats, SweepStats
from .result_cache import ResultCache, default_cache_dir, open_result_cache

__all__ = [
    "CACHE_VERSION",
    "CoexecRequest",
    "MachineSpec",
    "ResultCache",
    "StageStats",
    "SweepExecutor",
    "SweepStats",
    "WORKERS_ENV",
    "canonical_json",
    "default_cache_dir",
    "fingerprint",
    "open_result_cache",
    "resolve_workers",
]
