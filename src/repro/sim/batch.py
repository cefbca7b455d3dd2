"""Batch-vectorized slab evaluation of GPU sweep points.

:func:`evaluate_gpu_slab` prices an entire *slab* of ``gpu_point``
points — a :class:`SlabPoints`, the executor's ``(case, config, trials,
verify)`` payloads held as int64 columns — in a few NumPy passes instead
of one trip through :func:`~repro.core.timing.measure_gpu_reduction` per
point, and returns the results as columns, a :class:`SlabResult`.  Its
records are **byte-identical** under
:func:`~repro.sweep.fingerprint.canonical_json` to the scalar path's,
because every arithmetic expression mirrors the scalar model's operation
order exactly (IEEE-754 float64 elementwise operations are deterministic,
so an identical expression tree over identical inputs yields identical
bits):

1. *validation*: a baseline point's launch and the device capacity
   checks depend only on its case and op, so they are resolved once per
   (case, op); divisibility is checked once per distinct (case, op, V),
   and trials and thread counts by their columns' extremes.  If any point
   fails, the scalar checks run over the rebuilt payloads in submission
   order, so the same exception type and message, from the same first
   failing point, come out as from the serial loop (trials /
   divisibility / thread_limit / device capacity / occupancy);
2. per-point model constants come from the precomputed
   :class:`~repro.sim.tables.ModelTables` rows, gathered per (case, op);
3. the kernel-time model of :func:`~repro.gpu.perf.estimate_kernel_time`
   runs once over arrays, and the launches are recorded with one
   :meth:`~repro.sim.trace.Trace.record_launches` call;
4. functional values are memoized per machine, and a slab computes each
   value the memo lacks once: the points are grouped by what their value
   depends on (case, op and geometry; an integer sum by case alone), so
   the memo, verification and ``.item()`` run once per value group.
   Integer sums are geometry-independent (modular addition is
   associative — any grouping yields ``sum mod 2**bits``), so one
   ``np.add.reduce`` per (T, R, size) serves every geometry.  Every other
   point runs the device executor's two halves
   (:mod:`repro.gpu.exec_model`): the misses are grouped by what the
   thread level reads — identifier, T, R, size and the thread starts —
   each group's thread partials are computed once, and each point runs
   its own team level and final combine over them, the calls one
   :func:`~repro.gpu.exec_model.execute_reduction` per point would make.
   Groups run one after another, so one thread-level array is alive at a
   time and none outlives the call; the memo keeps scalars only.

The only per-point Python is building the launch records and the result
values (plus the scalar checks on the error path); groups and names are
found with dicts over the columns' lists, and result dicts are made by
:meth:`SlabResult.records`, where a caller needs them.

Known, intentional divergence from the serial loop: the slab validates
*every* point before computing any, so when two points would both raise,
the earlier point's error wins even if the serial loop would have
recorded some launches first — trace contents on *exception* paths may
differ (successful slabs record identical launch traces, in order).

Fault injection: under a task deadline the executor prices each point
as a one-point slab inside a pool worker, where the pool fires its
``worker.task`` point *around* this function (see
:mod:`repro.faults.supervisor`); the evaluator itself stays a pure
function.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..core.optimized import KernelConfig
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

__all__ = [
    "OP_CODES",
    "SLAB_POINT_BUCKETS",
    "SlabPoints",
    "SlabResult",
    "evaluate_gpu_slab",
]

#: ``slab.points_per_batch`` histogram buckets (points per evaluate call).
SLAB_POINT_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0
)

#: Reduction identifiers, indexed by the ``op`` column; 0 (the sum) is the
#: historical 4-tuple payload.  Never persisted: cache fingerprints see
#: the payload tuples, not this encoding.
OP_CODES: Tuple[str, ...] = ("+", "-", "*", "max", "min", "&", "|", "^",
                             "&&", "||", "argmax", "dot")
_OP_INDEX = {op: code for code, op in enumerate(OP_CODES)}
#: Input arrays each op streams (``dot`` reads two), by op code.
_OP_ARRAYS: Tuple[int, ...] = tuple(required_arrays(op) for op in OP_CODES)


class SlabPoints:
    """A slab's ``gpu_point`` payloads as columns.

    ``cases`` holds the distinct :class:`~repro.core.cases.Case` objects
    and ``columns`` a ``(7, n)`` int64 array whose rows are
    :attr:`COLUMNS`: ``case_idx`` indexes ``cases``, ``teams`` 0 marks a
    baseline point (its ``v`` and ``threads`` are 0 too), ``verify`` is
    −1 (``None``), 0 or 1, and ``op`` indexes :data:`OP_CODES`.  This is
    also the shared-memory request's buffer layout
    (:mod:`repro.sweep.shm`).
    """

    COLUMNS = ("case_idx", "teams", "v", "threads", "trials", "verify", "op")
    __slots__ = ("cases", "columns")

    def __init__(self, cases: List[Any], columns: np.ndarray) -> None:
        self.cases = cases
        self.columns = columns

    @classmethod
    def from_payloads(cls, payloads: Sequence[tuple]) -> "SlabPoints":
        """Columns for ``(case, config, trials, verify[, op])`` payloads.

        The one conversion from payload tuples; a :class:`SlabPoints`
        passes through unchanged.
        """
        if isinstance(payloads, SlabPoints):
            return payloads
        index: Dict[Any, int] = {}  # distinct cases, in order
        rows = []
        last = idx = None
        for payload in payloads:
            case, config, trials, verify = payload[:4]
            if case is not last:
                idx = index.setdefault(case, len(index))
                last = case
            flag = -1 if verify is None else 1 if verify else 0
            op = _OP_INDEX[payload[4]] if len(payload) > 4 else 0
            if config is None:
                rows.append((idx, 0, 0, 0, trials, flag, op))
            else:
                rows.append((idx, config.teams, config.v, config.threads,
                             trials, flag, op))
        table = np.array(rows, dtype=np.int64).reshape(-1, len(cls.COLUMNS))
        return cls(list(index), table.T)

    def payloads(self) -> List[tuple]:
        """The payload tuples back, in order (the error path and tests)."""
        out = []
        for idx, teams, v, threads, trials, flag, op in zip(
                *self.columns.tolist()):
            config = (None if teams == 0
                      else KernelConfig(teams=teams, v=v, threads=threads))
            point = (self.cases[idx], config, trials,
                     None if flag < 0 else bool(flag))
            out.append(point if op == 0 else point + (OP_CODES[op],))
        return out

    def __len__(self) -> int:
        return self.columns.shape[1]


class SlabResult:
    """A slab's results in submission order: float64 ``bandwidth`` and
    ``elapsed`` columns plus the values.

    Points with the same value share it: ``values`` holds one Python
    ``int`` or ``float`` per value group, and ``group`` lists each point's
    group.
    """

    __slots__ = ("bandwidth", "elapsed", "group", "values")

    def __init__(self, bandwidth: np.ndarray, elapsed: np.ndarray,
                 group: List[int], values: List[Any]) -> None:
        self.bandwidth = bandwidth
        self.elapsed = elapsed
        self.group = group
        self.values = values

    def __len__(self) -> int:
        return len(self.group)

    def records(self) -> List[dict]:
        """One ``{"bandwidth_gbs", "elapsed_seconds", "value"}`` dict per
        point."""
        values = self.values
        return [
            {"bandwidth_gbs": b, "elapsed_seconds": e, "value": values[g]}
            for b, e, g in zip(self.bandwidth.tolist(),
                               self.elapsed.tolist(), self.group)
        ]


def _kernel_name(case, op: str, baseline: bool, v: int) -> str:
    """The scalar path's program name; non-sum identifiers append
    ``_{op}``."""
    suffix = "" if op == "+" else f"_{op}"
    kind = "baseline" if baseline else "optimized"
    return f"{case.name.lower()}_{kind}{suffix}_v{v}"


def _baseline_launch(machine, tables: ModelTables, elements: int) -> tuple:
    """The baseline kernel's ``(grid, thread_limit)``: ICVs first, then
    the heuristics (before the device thread limit check)."""
    gpu = tables.gpu
    icvs = machine.runtime.icvs
    if icvs.teams_thread_limit is not None:
        block = min(icvs.teams_thread_limit, gpu.max_threads_per_block)
    elif icvs.thread_limit is not None:
        block = min(icvs.thread_limit, gpu.max_threads_per_block)
    else:
        block = default_thread_limit(None)
    if icvs.num_teams is not None:
        return icvs.num_teams, block
    return default_num_teams(elements, block), block


def _resolve_point(machine, tables: ModelTables, case, config) -> tuple:
    """Launch ``(grid, block)`` for one point, scalar-path order.

    Mirrors ``cached_compile(program).launch(...)`` →
    :meth:`~repro.openmp.runtime.DeviceRuntime.resolve_launch` without
    building program/directive objects: clause values first, then ICVs,
    then the heuristics, then the device thread limit check, then the
    round-up to a whole warp.
    """
    gpu = tables.gpu
    if config is not None:
        if case.elements % config.v:
            raise LaunchError(
                f"case {case.name}: M={case.elements} is not divisible by "
                f"v={config.v}"
            )
        # thread_limit(threads) / num_teams(teams/V) clause evaluations.
        block = config.threads
        grid = config.teams // config.v
    else:
        grid, block = _baseline_launch(machine, tables, case.elements)
    if block > gpu.max_threads_per_block:
        raise LaunchError(
            f"thread_limit {block} exceeds device maximum "
            f"{gpu.max_threads_per_block}"
        )
    if block % gpu.warp_size:
        block = -(-block // gpu.warp_size) * gpu.warp_size
    return grid, block


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


def _check_payloads(machine, tables: ModelTables,
                    payloads: Sequence[tuple]) -> None:
    """Every scalar check, point by point in submission order."""
    for payload in payloads:
        case, config, trials, _verify = payload[:4]
        op = payload[4] if len(payload) > 4 else "+"
        if trials <= 0:
            raise MeasurementError(f"trials must be positive, got {trials}")
        grid, block = _resolve_point(machine, tables, case, config)
        _validate_point(tables, case, grid, block, required_arrays(op))


def _groups(*columns: List[int]) -> Tuple[List[int], List[tuple]]:
    """Group the points by their rows across the *columns* lists.

    Returns each point's group number and each group's row; groups are
    numbered in order of first appearance.
    """
    rows = list(zip(*columns))
    number = dict(zip(dict.fromkeys(rows), count()))
    return list(map(number.__getitem__, rows)), list(number)


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
                    groups: List[tuple]) -> dict:
    """Compute the value of every key *memo* lacks, once per key.

    *keys* and *groups* run parallel over a slab's value groups: each
    group's key and ``(case, op, grid, block, V column)``.  Modular
    addition is associative (any grouping yields ``sum mod 2**bits``), so
    an integer sum is one ``np.add.reduce``.  Every other key runs the
    hierarchical executor, grouped by everything its thread level reads:
    the identifier, T, R, ``n`` and the thread starts.
    """
    misses: dict = {}
    for i, key in enumerate(keys):
        if key not in memo:
            misses.setdefault(key, i)
    values: dict = {}
    levels: dict = {}
    for key, i in misses.items():
        case, op, g, b, v_column = groups[i]
        rtype = case.result_type
        if op == "+" and rtype.is_integer:
            values[key] = rtype.numpy.type(
                np.add.reduce(machine.workload(case), dtype=rtype.numpy))
            continue
        v = max(v_column, 1)
        kernel = ReductionKernel(
            name=_kernel_name(case, op, v_column == 0, v),
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
        levels.setdefault(shared, []).append((key, case, kernel))
    for members in levels.values():
        _key, case, kernel = members[0]
        data, second = _operands(machine, case, kernel.identifier)
        level = _thread_level(data, kernel, second)
        for key, _case, kernel in members:
            values[key] = _team_level(level, kernel)
        # Release this group's array before the next group computes its
        # own: one thread-level array is alive at a time.
        del level
    return values


def evaluate_gpu_slab(machine, points: Sequence[tuple]) -> SlabResult:
    """Evaluate a slab of ``gpu_point`` points in a few NumPy passes.

    Parameters
    ----------
    machine:
        The :class:`~repro.core.machine.Machine` the points run on.
    points:
        A :class:`SlabPoints`, or ``(case, config, trials, verify)``
        payload tuples exactly as built by
        :meth:`~repro.sweep.executor.SweepExecutor.gpu_points` (non-sum
        reductions append a fifth ``op`` element), converted once.

    Returns
    -------
    SlabResult
        The points' results in submission order;
        :meth:`SlabResult.records` gives one ``{"bandwidth_gbs",
        "elapsed_seconds", "value"}`` dict per point, byte-identical
        (canonical JSON) to :func:`repro.verify.oracles.scalar_gpu_records`.
    """
    points = SlabPoints.from_payloads(points)
    n = len(points)
    metrics().histogram(
        "slab.points_per_batch", boundaries=SLAB_POINT_BUCKETS
    ).observe(n)
    if n == 0:
        return SlabResult(np.empty(0), np.empty(0), [], [])
    tables = tables_for(machine)
    cases = points.cases
    columns = points.columns
    (case_list, teams_list, v_list, _threads, trials_list, flag_list,
     op_list) = columns.tolist()
    teams, trials = columns[1], columns[4]
    # A kernel is a distinct (case, op, V column); V 0 is the baseline.
    kernels = list(dict.fromkeys(zip(case_list, op_list, v_list)))
    pairs = list(dict.fromkeys(zip(case_list, op_list)))

    # -- pass 1: per-(case, op) constants, then the checks.  A baseline
    # point's launch and the device capacity checks depend on its case and
    # op alone.
    capacity = tables.device_capacity_bytes
    int_rows, float_rows = [], []
    fits, geometric_values = True, False
    for c, code in pairs:
        case = cases[c]
        erow = tables.elements[case.element_type.name]
        rrow = tables.results[case.result_type.name]
        # Mirrors kernel.input_bytes: dot streams both operands, so its
        # memory term and bandwidth numerator count both arrays.
        input_bytes = case.input_bytes * _OP_ARRAYS[code]
        fits = fits and input_bytes + case.result_type.size <= capacity
        # A baseline point launches as (teams, V, threads) =
        # (grid, 1, thread_limit).
        base_grid, base_block = _baseline_launch(machine, tables,
                                                 case.elements)
        # Only an integer sum's value ignores the launch geometry.
        by_geometry = code != 0 or not case.result_type.is_integer
        geometric_values = geometric_values or by_geometry
        int_rows.append((base_grid, 1, base_block, case.elements, erow.size,
                         by_geometry))
        float_rows.append((input_bytes, erow.ceiling_gbs, erow.elem_issue,
                           erow.iter_fixed, erow.inflight_scale,
                           rrow.combine_cycles, rrow.scalar_motion_s))
    # One row per pair; a lone pair's rows broadcast over the points.
    per_pair = (np.array(int_rows, dtype=np.int64).T,
                np.array(float_rows, dtype=np.float64).T)
    if len(pairs) > 1:
        index = dict(zip(pairs, count()))
        pair_idx = np.fromiter(map(index.__getitem__, zip(case_list, op_list)),
                               dtype=np.int64, count=n)
        per_pair = [table.take(pair_idx, axis=1) for table in per_pair]
    elements, esize, geometric = per_pair[0][3:]
    (input_bytes, ceiling, elem_issue, iter_fixed, inflight, combine,
     scalar_motion) = per_pair[1]
    if 0 in teams_list:
        launch_teams, v_arr, requested = np.where(
            teams == 0, per_pair[0][:3], columns[1:4])
    else:
        launch_teams, v_arr, requested = teams, columns[2], columns[3]
    # Each check bounds a column or depends on a kernel alone.  A block
    # needs more warps than an SM holds exactly when its thread count,
    # before the warp round-up, exceeds that many warps' threads.
    limit = min(tables.max_threads_per_block,
                tables.max_warps_per_sm * tables.warp_size)
    if (not fits or min(trials_list) <= 0 or max(requested.tolist()) > limit
            or any(cases[c].elements % v for c, _o, v in kernels if v)):
        _check_payloads(machine, tables, points.payloads())
    trip = elements // v_arr
    grid = launch_teams // v_arr
    block = requested + -requested % tables.warp_size  # whole warps
    trials_arr = trials.astype(np.float64)

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
    trip_f = trip.astype(np.float64)
    insts_per_iter = tables.loop_overhead + iter_fixed + v_f * elem_issue
    warp_insts = trip_f * insts_per_iter / tables.warp_size
    issue_time = warp_insts / tables.issue_denom

    # Block-latency term.
    chain_per_iter = tables.latency_cycles + v_f * elem_issue
    total_threads = (grid * block).astype(np.float64)
    avg_iterations = np.maximum(1.0, trip_f / total_threads)
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
    name_of = {
        (c, o, v): _kernel_name(cases[c], OP_CODES[o], v == 0, max(v, 1))
        for c, o, v in kernels
    }
    case_elements = [case.elements for case in cases]
    machine.trace.record_launches(list(map(
        KernelLaunchRecord, repeat(0.0),
        map(name_of.__getitem__, zip(case_list, op_list, v_list)),
        grid.tolist(), block.tolist(),
        map(case_elements.__getitem__, case_list),
        map(bool, teams_list), total.tolist(),
    )))

    # -- pass 4: functional values, once per value group.  A group's
    # points share case, op, verify flag and, where the value depends on
    # it, launch geometry, so the groups' first points are every point
    # where the serial loop touches the memo.  The memo holds (value,
    # verified); verification runs once per key, on the first point that
    # asks for it, and a value is stored only once the point that
    # computed it has verified it if asked to.
    memo = getattr(machine, "_slab_value_cache", None)
    if memo is None:
        memo = machine._slab_value_cache = {}
    strict = machine.config.strict_verify
    if geometric_values:
        shape = [(column * geometric).tolist()
                 for column in (grid, block, columns[2])]
    else:  # no value here depends on the launch geometry
        shape = [repeat(0)] * 3
    gid, rows = _groups(case_list, op_list, flag_list, *shape)
    groups = [(cases[c], OP_CODES[o], g, b, v)
              for c, o, _flag, g, b, v in rows]
    keys = [
        _value_key(case, machine.functional_elements(case), g, b, max(v, 1),
                   o)
        for case, o, g, b, v in groups
    ]
    fresh = _missing_values(machine, memo, keys, groups)
    values: Dict[tuple, Any] = {}
    for key, (case, o, *_geometry), (_c, _o, flag, *_shape) in zip(
            keys, groups, rows):
        ask = strict if flag < 0 else flag > 0
        hit = memo.get(key)
        if key not in values:
            values[key] = fresh[key] if hit is None else hit[0]
        if hit is not None and (not ask or hit[1]):
            continue
        if ask:
            data, second = _operands(machine, case, o)
            verify_result(values[key], data, case.result_type, o, second)
        memo[key] = (values[key], ask)
    items = {key: value.item() for key, value in values.items()}
    return SlabResult(bandwidth, elapsed, gid, [items[key] for key in keys])
