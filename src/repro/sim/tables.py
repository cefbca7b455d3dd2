"""Precomputed model lookup tables for the batch-vectorized hot path.

The scalar pipeline re-derives the same per-type calibration constants and
link costs on every point: :func:`~repro.gpu.memory_system.
achievable_bandwidth_gbs` re-reads the efficiency/inflight tables,
:func:`~repro.gpu.perf.estimate_kernel_time` re-reads issue and combine
costs, and every :class:`~repro.openmp.data_env.DeviceDataEnvironment`
re-prices the same one-scalar ``target update`` pair.  None of those
values depend on the parameter point — only on the machine profile
(GPU spec + calibration + link) and the element/result types.

:class:`ModelTables` denormalizes them once per machine profile into flat
per-dtype rows plus machine scalars, memoized process-wide by a content
fingerprint of ``(gpu, calibration, link)``, so the slab evaluator
(:mod:`repro.sim.batch`) prices N points with array arithmetic and table
*lookups* instead of N trips through the calibration objects.  Every
stored value is produced by the exact expressions of the scalar model, in
the same operation order, so downstream arithmetic stays bit-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..dtypes import SCALAR_TYPES, ScalarType, scalar_type
from ..errors import LaunchError
from ..gpu.calibration import GpuCalibration
from ..gpu.memory_system import warp_inflight_bytes
from ..gpu.strategies import atomic_same_address_ns
from ..hardware.spec import GpuSpec, LinkSpec
from ..sweep.fingerprint import fingerprint

__all__ = ["ElementRow", "ResultRow", "ModelTables", "tables_for"]


@dataclass(frozen=True)
class ElementRow:
    """Per element-type constants of the kernel-time model."""

    size: int
    #: ``efficiency(T) * peak`` — the DRAM ceiling term of the bandwidth min.
    ceiling_gbs: float
    #: warp-instructions per element accumulated.
    elem_issue: float
    #: fixed warp-instructions per loop iteration (sub-word unpack/widen).
    iter_fixed: float
    #: in-flight derating (sector under-utilization / register pressure).
    inflight_scale: float


@dataclass(frozen=True)
class ResultRow:
    """Per result-type constants of the kernel-time model."""

    size: int
    combine_cycles: float
    atomic_ns: float
    #: Listing-6 per-trial scalar motion: ``update_to + update_from`` of
    #: one R scalar over the C2C link (non-UM mode).
    scalar_motion_s: float


class ModelTables:
    """Flat, machine-profile-scoped constants for slab evaluation.

    Built once per (GPU spec, calibration, link) profile and shared by
    every :class:`~repro.core.machine.Machine` with that profile; see
    :func:`tables_for`.
    """

    def __init__(
        self, gpu: GpuSpec, calibration: GpuCalibration, link: LinkSpec
    ):
        self.gpu = gpu
        self.calibration = calibration
        self.link = link

        # -- machine scalars, in the scalar model's exact operation order.
        self.clock_hz = gpu.clock_ghz * 1e9
        self.latency_s = gpu.memory.latency_ns * 1e-9
        self.latency_cycles = gpu.memory.latency_ns * 1e-9 * self.clock_hz
        self.warp_size = gpu.warp_size
        self.sms = gpu.sms
        self.issue_denom = gpu.sms * gpu.issue_rate_ipc * self.clock_hz
        self.launch_s = gpu.kernel_launch_latency_us * 1e-6
        self.loop_overhead = calibration.loop_overhead_insts
        self.block_setup = calibration.block_setup_cycles
        self.max_threads_per_block = gpu.max_threads_per_block
        self.max_warps_per_sm = gpu.max_warps_per_sm
        self.max_blocks_per_sm = gpu.max_blocks_per_sm
        self.device_capacity_bytes = gpu.memory.capacity_bytes
        self.peak_bandwidth_gbs = gpu.memory.peak_bandwidth_gbs

        # -- per-dtype rows.
        self.elements: Dict[str, ElementRow] = {}
        self.results: Dict[str, ResultRow] = {}
        for name, st in SCALAR_TYPES.items():
            self.elements[name] = ElementRow(
                size=st.size,
                ceiling_gbs=(
                    calibration.efficiency_for(st)
                    * gpu.memory.peak_bandwidth_gbs
                ),
                elem_issue=calibration.element_issue_for(st),
                iter_fixed=calibration.iter_fixed_for(st),
                inflight_scale=calibration.inflight_scale_for(st),
            )
            motion_once = (
                link.latency_us * 1e-6 + st.size / (link.bandwidth_gbs * 1e9)
            )
            self.results[name] = ResultRow(
                size=st.size,
                combine_cycles=calibration.combine_cycles_for(st),
                atomic_ns=atomic_same_address_ns(st),
                scalar_motion_s=motion_once + motion_once,
            )

    # -- vectorized building blocks ---------------------------------------
    def element_row(self, element_type) -> ElementRow:
        return self.elements[scalar_type(element_type).name]

    def result_row(self, result_type) -> ResultRow:
        return self.results[scalar_type(result_type).name]

    def inflight_per_warp(self, element_type, v: np.ndarray) -> np.ndarray:
        """Vectorized :func:`~repro.gpu.memory_system.warp_inflight_bytes`.

        Mirrors the scalar expression term by term: ``warp * V * size``
        clamped to the LSU cap, scaled by pipelining slack, then derated
        per element type.
        """
        row = self.element_row(element_type)
        raw = (self.warp_size * v * row.size).astype(np.float64)
        capped = np.minimum(raw, self.calibration.warp_inflight_cap_bytes)
        return capped * self.calibration.mlp_scale * row.inflight_scale

    def occupancy_arrays(
        self, grid: np.ndarray, block: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized residency: ``(warps_per_block, blocks_per_sm,
        active_warps)`` for already-validated launch geometry.

        Raises
        ------
        LaunchError
            With the scalar occupancy calculator's message when a block
            needs more warps than an SM can hold.
        """
        wpb = -(-block // self.warp_size)
        over = wpb > self.max_warps_per_sm
        if np.count_nonzero(over):
            i = int(np.argmax(over))
            raise LaunchError(
                f"a {int(block[i])}-thread block needs {int(wpb[i])} warps, "
                f"more than the {self.max_warps_per_sm} an SM can hold"
            )
        bps = np.minimum(self.max_blocks_per_sm, self.max_warps_per_sm // wpb)
        capacity = self.sms * bps
        active_blocks = np.minimum(grid, capacity)
        return wpb, bps, active_blocks * wpb

    # -- consistency check -------------------------------------------------
    def verify_against_scalar(self, element_type, v: int) -> None:
        """Assert one table-driven in-flight value matches the scalar path.

        Used by tests; a drifted table is a correctness bug, not a perf
        bug, because the slab path must stay byte-identical.
        """
        st: ScalarType = scalar_type(element_type)
        scalar = warp_inflight_bytes(self.gpu, v, st, self.calibration)
        vector = float(
            self.inflight_per_warp(st, np.asarray([v], dtype=np.int64))[0]
        )
        if scalar != vector:  # pragma: no cover - guards future edits
            raise AssertionError(
                f"table drift for {st.name} v={v}: {vector!r} != {scalar!r}"
            )


_TABLES_LOCK = threading.Lock()
_TABLES: Dict[str, ModelTables] = {}


def tables_for(machine) -> ModelTables:
    """The memoized :class:`ModelTables` for *machine*'s hardware profile.

    Keyed by a content fingerprint of ``(gpu, calibration, link)`` so
    machines sharing a profile (every worker process rebuilt from one
    :class:`~repro.sweep.executor.MachineSpec`, every service handler)
    share one table set; an instance-level cache makes the repeat lookup
    a single attribute read.
    """
    cached = getattr(machine, "_model_tables", None)
    if cached is not None:
        return cached
    key = fingerprint(
        {
            "gpu": machine.system.gpu,
            "calibration": machine.calibration,
            "link": machine.system.link,
        }
    )
    with _TABLES_LOCK:
        tables = _TABLES.get(key)
        if tables is None:
            tables = ModelTables(
                machine.system.gpu, machine.calibration, machine.system.link
            )
            _TABLES[key] = tables
    machine._model_tables = tables
    return tables
