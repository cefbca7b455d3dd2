"""Batch-vectorized slab evaluation of GPU sweep points.

:func:`evaluate_gpu_slab` prices an entire *slab* — a list of
``(case, config, trials, verify)`` points, exactly the payloads of the
executor's ``gpu_point`` task — in a few NumPy passes instead of one
trip through :func:`~repro.core.timing.measure_gpu_reduction` per point.
It produces the same result records, **byte-identical** under
:func:`~repro.sweep.fingerprint.canonical_json`, because every
arithmetic expression mirrors the scalar model's operation order exactly
(IEEE-754 float64 elementwise operations are deterministic, so an
identical expression tree over identical inputs yields identical bits):

1. per-point *validation* walks the slab in submission order and raises
   the same exception type and message, at the same first failing point,
   as the serial loop would (trials / divisibility / thread_limit /
   device capacity / occupancy);
2. per-point model constants come from the precomputed
   :class:`~repro.sim.tables.ModelTables` rows (gathered into arrays)
   instead of per-point calibration lookups;
3. the kernel-time model of :func:`~repro.gpu.perf.estimate_kernel_time`
   runs once over arrays;
4. functional values are memoized per machine, and a slab computes each
   value the memo lacks once.  Integer sums are geometry-independent
   (modular addition is associative — any grouping yields ``sum mod
   2**bits``), so one ``np.add.reduce`` per (T, R, size) serves every
   geometry.  Every other point runs the device executor's two halves
   (:mod:`repro.gpu.exec_model`): the misses are grouped by what the
   thread level reads — identifier, T, R, size and the thread starts —
   each group's thread partials are computed once, and each point runs
   its own team level and final combine over them, the calls one
   :func:`~repro.gpu.exec_model.execute_reduction` per point would make.
   Groups run one after another, so one thread-level array is alive at a
   time and none outlives the call; the memo keeps scalars only.

Known, intentional divergence from the serial loop: the slab validates
*every* point before computing any, so when two points would both raise,
the earlier point's error wins even if the serial loop would have
recorded some launches first — trace contents on *exception* paths may
differ (successful slabs record identical launch traces, in order).

Fault injection: the executor's worker-side slab task fires the
``slab.evaluate`` point *around* this function (see
:func:`repro.sweep.executor._task_gpu_slab`) so crash / hang / slow /
wrong_result modes interact with the shared-memory transport the way
``worker.task`` interacts with the pickle transport; the evaluator
itself stays a pure function.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.verify import verify_result
from ..errors import LaunchError, MeasurementError, MemoryModelError
from ..gpu.exec_model import _team_level, _thread_level, _thread_starts_key
# Bound for ``perfbench/tracing.py``, which wraps this module's name; the
# slab itself runs the executor's two halves.
from ..gpu.exec_model import _execute_reduction  # noqa: F401
from ..gpu.kernels import ReductionKernel
from ..openmp.heuristics import default_num_teams, default_thread_limit
from ..openmp.reduction_ops import required_arrays
from ..openmp.runtime import LaunchGeometry
from ..telemetry.state import metrics
from .tables import ModelTables, tables_for
from .trace import KernelLaunchRecord

__all__ = ["evaluate_gpu_slab", "SLAB_POINT_BUCKETS"]

#: ``slab.points_per_batch`` histogram buckets (points per evaluate call).
SLAB_POINT_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0
)


def _resolve_point(machine, tables: ModelTables, case, config,
                   op: str = "+") -> tuple:
    """Launch geometry + kernel name for one point, scalar-path order.

    Mirrors ``cached_compile(program).launch(...)`` →
    :meth:`~repro.openmp.runtime.DeviceRuntime.resolve_launch` without
    building program/directive objects: clause values first, then ICVs,
    then the heuristics, then the device thread limit check, then the
    round-up to a whole warp.  Non-sum identifiers append the scalar
    path's ``_{op}`` program-name suffix.
    """
    gpu = tables.gpu
    icvs = machine.runtime.icvs
    suffix = "" if op == "+" else f"_{op}"
    if config is not None:
        if case.elements % config.v:
            raise LaunchError(
                f"case {case.name}: M={case.elements} is not divisible by "
                f"v={config.v}"
            )
        v = config.v
        # thread_limit(threads) / num_teams(teams/V) clause evaluations.
        block = config.threads
        grid, from_clause = config.teams // config.v, True
        name = f"{case.name.lower()}_optimized{suffix}_v{v}"
    else:
        v = 1
        if icvs.teams_thread_limit is not None:
            block = min(icvs.teams_thread_limit, gpu.max_threads_per_block)
        elif icvs.thread_limit is not None:
            block = min(icvs.thread_limit, gpu.max_threads_per_block)
        else:
            block = default_thread_limit(None)
        if icvs.num_teams is not None:
            grid, from_clause = icvs.num_teams, False
        else:
            grid, from_clause = default_num_teams(case.elements, block), False
        name = f"{case.name.lower()}_baseline{suffix}_v{v}"
    if block > gpu.max_threads_per_block:
        raise LaunchError(
            f"thread_limit {block} exceeds device maximum "
            f"{gpu.max_threads_per_block}"
        )
    if block % gpu.warp_size:
        block = -(-block // gpu.warp_size) * gpu.warp_size
    return grid, block, from_clause, v, name


def _validate_point(tables: ModelTables, case, grid: int, block: int,
                    arrays: int = 1) -> None:
    """The scalar path's post-launch checks, in its order."""
    # DeviceDataEnvironment: map_to("in", M*sizeof(T)) [, map_to("in2",
    # ...) for two-array ops], map_alloc("sum", R).
    capacity = tables.device_capacity_bytes
    if case.input_bytes > capacity:
        raise MemoryModelError(
            f"device memory exhausted mapping 'in': "
            f"0 + {case.input_bytes} > {capacity}"
        )
    mapped = case.input_bytes
    if arrays > 1:
        if mapped + case.input_bytes > capacity:
            raise MemoryModelError(
                f"device memory exhausted mapping 'in2': "
                f"{mapped} + {case.input_bytes} > {capacity}"
            )
        mapped += case.input_bytes
    rsize = case.result_type.size
    if mapped + rsize > capacity:
        raise MemoryModelError(
            f"device memory exhausted mapping 'sum': "
            f"{mapped} + {rsize} > {capacity}"
        )
    # occupancy(): the warps-per-SM residency bound.
    wpb = -(-block // tables.warp_size)
    if wpb > tables.max_warps_per_sm:
        raise LaunchError(
            f"a {block}-thread block needs {wpb} warps, more than the "
            f"{tables.max_warps_per_sm} an SM can hold"
        )


def _value_key(case, n: int, grid: int, block: int, v: int,
               op: str) -> tuple:
    """What a point's functional value depends on, for the value memo.

    Integer sums are geometry-independent; float sums key on the full
    schedule shape; non-sum identifiers key on the full shape plus the op.
    """
    etype, rtype = case.element_type.name, case.result_type.name
    if op != "+":
        return (op, etype, rtype, n, grid, block, v)
    if case.result_type.is_integer:
        return (etype, rtype, n)
    return (etype, rtype, n, grid, block, v)


def _operands(machine, case, op: str) -> tuple:
    return (machine.workload(case),
            machine.workload_pair(case) if op == "dot" else None)


def _missing_values(machine, memo: dict, keys: List[tuple],
                    payloads: Sequence[tuple], grid, block, v_arr,
                    names: List[str], ops: List[str]) -> dict:
    """Compute the value of every key *memo* lacks, once per key.

    Modular addition is associative (any grouping yields ``sum mod
    2**bits``), so an integer sum is one ``np.add.reduce``.  Every other
    point runs the hierarchical executor, grouped by everything its thread
    level reads: the identifier, T, R, ``n`` and the thread starts.
    """
    misses: dict = {}
    for i, key in enumerate(keys):
        if key not in memo:
            misses.setdefault(key, i)
    values: dict = {}
    groups: dict = {}
    for key, i in misses.items():
        case, op = payloads[i][0], ops[i]
        rtype = case.result_type
        if op == "+" and rtype.is_integer:
            values[key] = rtype.numpy.type(
                np.add.reduce(machine.workload(case), dtype=rtype.numpy))
            continue
        g, b, v = int(grid[i]), int(block[i]), int(v_arr[i])
        kernel = ReductionKernel(
            name=names[i],
            geometry=LaunchGeometry(grid=g, block=b, from_clause=True),
            elements=case.elements,
            elements_per_iteration=v,
            element_type=case.element_type,
            result_type=rtype,
            identifier=op,
            arrays=required_arrays(op),
        )
        shared = (op, case.element_type.name, rtype.name,
                  *_thread_starts_key(machine.functional_elements(case),
                                      g, b, v))
        groups.setdefault(shared, []).append((key, case, kernel))
    for members in groups.values():
        _key, case, kernel = members[0]
        data, second = _operands(machine, case, kernel.identifier)
        level = _thread_level(data, kernel, second)
        for key, _case, kernel in members:
            values[key] = _team_level(level, kernel)
        # Release this group's array before the next group computes its
        # own: one thread-level array is alive at a time.
        del level
    return values


def evaluate_gpu_slab(machine, payloads: Sequence[tuple]) -> List[dict]:
    """Evaluate a slab of ``gpu_point`` payloads in a few NumPy passes.

    Parameters
    ----------
    machine:
        The :class:`~repro.core.machine.Machine` the points run on.
    payloads:
        ``(case, config, trials, verify)`` tuples, exactly as built by
        :meth:`~repro.sweep.executor.SweepExecutor.gpu_points`; non-sum
        reductions append a fifth ``op`` element (identifier string).

    Returns
    -------
    list of dict
        One ``{"bandwidth_gbs", "elapsed_seconds", "value"}`` record per
        payload, in submission order — byte-identical (canonical JSON)
        to :func:`repro.verify.oracles.scalar_gpu_records`.
    """
    payloads = list(payloads)
    n = len(payloads)
    metrics().histogram(
        "slab.points_per_batch", boundaries=SLAB_POINT_BUCKETS
    ).observe(n)
    if n == 0:
        return []
    tables = tables_for(machine)

    # -- pass 1: validate in submission order; gather per-point scalars.
    grid = np.empty(n, dtype=np.int64)
    block = np.empty(n, dtype=np.int64)
    v_arr = np.empty(n, dtype=np.int64)
    trip = np.empty(n, dtype=np.int64)
    esize = np.empty(n, dtype=np.int64)
    input_bytes = np.empty(n, dtype=np.float64)
    trials_arr = np.empty(n, dtype=np.float64)
    ceiling = np.empty(n, dtype=np.float64)
    elem_issue = np.empty(n, dtype=np.float64)
    iter_fixed = np.empty(n, dtype=np.float64)
    inflight = np.empty(n, dtype=np.float64)
    combine = np.empty(n, dtype=np.float64)
    scalar_motion = np.empty(n, dtype=np.float64)
    from_clause: List[bool] = [False] * n
    names: List[str] = [""] * n
    ops: List[str] = ["+"] * n
    for i, payload in enumerate(payloads):
        case, config, trials, _verify = payload[:4]
        op = payload[4] if len(payload) > 4 else "+"
        ops[i] = op
        if trials <= 0:
            raise MeasurementError(f"trials must be positive, got {trials}")
        g, b, fc, v, name = _resolve_point(machine, tables, case, config, op)
        _validate_point(tables, case, g, b, required_arrays(op))
        grid[i] = g
        block[i] = b
        v_arr[i] = v
        trip[i] = case.elements // v
        from_clause[i] = fc
        names[i] = name
        erow = tables.elements[case.element_type.name]
        rrow = tables.results[case.result_type.name]
        esize[i] = erow.size
        # Mirrors kernel.input_bytes: dot streams both operands, so its
        # memory term and bandwidth numerator count both arrays.
        input_bytes[i] = case.input_bytes * required_arrays(op)
        trials_arr[i] = trials
        ceiling[i] = erow.ceiling_gbs
        elem_issue[i] = erow.elem_issue
        iter_fixed[i] = erow.iter_fixed
        inflight[i] = erow.inflight_scale
        combine[i] = rrow.combine_cycles
        scalar_motion[i] = rrow.scalar_motion_s

    # -- pass 2: the kernel-time model, vectorized.  Each line mirrors
    # the corresponding scalar expression's operation order exactly.
    cal = tables.calibration
    wpb, bps, active_warps = tables.occupancy_arrays(grid, block)

    # Memory term (Little's law vs the DRAM ceiling).
    raw = tables.warp_size * v_arr * esize
    per_warp = (
        np.minimum(raw.astype(np.float64), cal.warp_inflight_cap_bytes)
        * cal.mlp_scale
        * inflight
    )
    concurrency = (
        active_warps.astype(np.float64) * per_warp / tables.latency_s / 1e9
    )
    bw = np.minimum(ceiling, concurrency)
    memory_time = input_bytes / (bw * 1e9)

    # Issue term.
    v_f = v_arr.astype(np.float64)
    insts_per_iter = tables.loop_overhead + iter_fixed + v_f * elem_issue
    warp_insts = trip.astype(np.float64) * insts_per_iter / tables.warp_size
    issue_time = warp_insts / tables.issue_denom

    # Block-latency term.
    chain_per_iter = tables.latency_cycles + v_f * elem_issue
    total_threads = (grid * block).astype(np.float64)
    avg_iterations = np.maximum(1.0, trip.astype(np.float64) / total_threads)
    block_cycles = (
        tables.block_setup + avg_iterations * chain_per_iter + combine
    )
    slots = tables.sms * bps
    blocks_per_slot = -(-grid // slots)
    block_latency = (
        blocks_per_slot.astype(np.float64) * block_cycles / tables.clock_hz
    )

    # TREE strategy: no global atomics; total = launch + max(body terms).
    body = np.maximum(np.maximum(memory_time, issue_time), block_latency)
    total = tables.launch_s + np.maximum(body, 0.0)

    # Listing 6: per-trial `target update to/from` of the R scalar.
    trial_seconds = scalar_motion + total
    elapsed = trials_arr * trial_seconds
    bandwidth = input_bytes * trials_arr / 1e9 / elapsed

    # -- pass 3: launch trace (submission order, like the serial loop).
    record_launch = machine.trace.record_launch
    for i, payload in enumerate(payloads):
        case = payload[0]
        record_launch(
            KernelLaunchRecord(
                time=0.0,
                name=names[i],
                grid=int(grid[i]),
                block=int(block[i]),
                elements=case.elements,
                from_clause=from_clause[i],
                duration=float(total[i]),
            )
        )

    # -- pass 4: functional values + records.  The memo holds
    # (value, verified); verification runs once per key, on the first
    # point that asks for it.
    memo = getattr(machine, "_slab_value_cache", None)
    if memo is None:
        memo = machine._slab_value_cache = {}
    keys = [
        _value_key(payload[0], machine.functional_elements(payload[0]),
                   int(grid[i]), int(block[i]), int(v_arr[i]), ops[i])
        for i, payload in enumerate(payloads)
    ]
    fresh = _missing_values(machine, memo, keys, payloads, grid, block,
                            v_arr, names, ops)
    strict = machine.config.strict_verify
    records: List[dict] = []
    for i, payload in enumerate(payloads):
        case, verify, key = payload[0], payload[3], keys[i]
        do_verify = strict if verify is None else verify
        hit = memo.get(key)
        if hit is not None and (not do_verify or hit[1]):
            value = hit[0]
        else:
            value = fresh[key] if hit is None else hit[0]
            if do_verify:
                data, second = _operands(machine, case, ops[i])
                verify_result(value, data, case.result_type, ops[i], second)
            memo[key] = (value, do_verify)
        records.append(
            {
                "bandwidth_gbs": float(bandwidth[i]),
                "elapsed_seconds": float(elapsed[i]),
                "value": value.item(),
            }
        )
    return records
