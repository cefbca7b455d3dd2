"""Functional execution of reduction kernels.

This module actually computes the reduction with the same hierarchical
partitioning the device uses, fully vectorized with NumPy (no Python loop
over threads):

1. ``distribute`` — the iteration space is split into contiguous
   static chunks per team;
2. ``parallel for`` — each team's chunk is split into contiguous static
   chunks per thread; each thread accumulates privately **in the result
   type R** (so int32 accumulation wraps, int8 inputs widen to int64, and
   float rounding follows the real grouping);
3. end-of-team combine over thread partials, then a final combine over
   team partials (deterministic team order).

The chunk boundaries are closed-form: the schedule's shape (trip count,
iterations per team and per thread, active teams, threads per team)
follows from ``(n, grid, block, V)``.  Every team but the last keeps all
its threads, so team *t*'s first thread is ``t * threads_per_team``; when
a team's chunk splits evenly into thread chunks, the thread starts are
one uniform ``arange``.  A level whose segments each hold one value (one
element per thread, or one thread per team) skips its ``reduceat``,
because a one-element segment reduces to that value, and a lone team's
thread partials go straight to the final combine.  None of this changes
a bit of the result: ``tests/properties/test_exec_properties.py`` checks
it against an always-two-level reference.

The executor is two halves composed: :func:`_thread_level` (values to
thread partials, steps 1–2) and :func:`_team_level` (thread partials to
R, step 3).  The thread level reads the identifier, T, R, the data and
the thread starts, and nothing else of the launch, and it is most of the
work.  So :mod:`repro.sim.batch` computes it once for the launches of a
slab that agree on all of those (the starts by
:func:`_thread_starts_key`) and runs each launch's own team level over
it: the same NumPy calls on the same arrays as one
:func:`execute_reduction` per launch, so no bit moves.

For integers the result is exactly ``sum mod 2**bits`` regardless of the
geometry (modular addition is associative); for floats different geometries
legitimately produce slightly different roundings, which the verification
layer treats with a relative tolerance — the same situation as on real
hardware.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import UnsupportedReductionError
from ..telemetry.state import span as tele_span
from .kernels import ReductionKernel

__all__ = ["execute_reduction", "thread_chunk_starts"]

# Extended identifiers the executor lowers outside the ufunc table:
#
# * ``argmax`` — each thread tracks ``(best_value, best_index)`` and the
#   combine keeps the larger value, breaking ties toward the *lower*
#   index.  Because static chunks are contiguous and combined in thread
#   then team order, that hierarchy provably returns the first index of
#   the global maximum — i.e. exactly ``np.argmax`` — for every launch
#   geometry, so the executor computes it directly.
# * ``dot`` — products are widened to R first (``sum += (R)x[i]*(R)y[i]``)
#   and then accumulated with the ordinary ``+`` hierarchy, so the float
#   grouping (and integer wraparound) is the sum reduction's over the
#   product array.

_UFUNCS = {
    "+": np.add,
    "-": np.add,  # OpenMP 5.1: '-' combines with +
    "*": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
}

# Logical identifiers reduce the truth-values of the elements; `all` is a
# min over {0,1} and `any` a max, which keeps the reduceat path uniform.
_LOGICAL = {"&&": np.minimum, "||": np.maximum}


def _schedule(n_elements: int, grid: int, block: int,
              v: int) -> Tuple[int, int, int, int, int]:
    """The static schedule's shape, in loop iterations.

    Returns ``(trip, team_iters, teams, thread_iters, threads_per_team)``:
    the trip count, each team's chunk, the active teams, each thread's
    chunk, and the threads one full team keeps busy.
    """
    if n_elements <= 0:
        raise ValueError(f"n_elements must be positive, got {n_elements}")
    trip = -(-n_elements // v)  # iterations, last one possibly ragged
    team_iters = -(-trip // grid)
    teams = -(-trip // team_iters)
    thread_iters = -(-team_iters // block)
    threads_per_team = -(-team_iters // thread_iters)
    return trip, team_iters, teams, thread_iters, threads_per_team


def _thread_starts(trip: int, team_iters: int, teams: int,
                   thread_iters: int, v: int) -> np.ndarray:
    """Element offsets where each active thread's chunk begins."""
    if team_iters % thread_iters == 0:
        # Every team boundary is a thread boundary: one uniform stride.
        return np.arange(0, trip * v, thread_iters * v, dtype=np.int64)
    per_team = np.arange(0, team_iters, thread_iters, dtype=np.int64)
    starts = (np.arange(teams, dtype=np.int64)[:, None] * team_iters
              + per_team[None, :]).ravel()
    return starts[starts < trip] * v  # only the last team can run short


def _thread_starts_key(n_elements: int, grid: int, block: int,
                       v: int) -> tuple:
    """A hashable that fixes :func:`_thread_starts` for this launch.

    Two launches with equal keys have the same thread starts.  A uniform
    schedule's starts are every ``thread_iters * v`` elements below
    ``n``; any other schedule's follow from its chunk sizes.
    """
    _trip, team_iters, _teams, thread_iters, _ = _schedule(
        n_elements, grid, block, v)
    if team_iters % thread_iters == 0:
        return n_elements, thread_iters * v
    return n_elements, v, team_iters, thread_iters


def thread_chunk_starts(
    n_elements: int, grid: int, block: int, v: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Static-schedule chunk boundaries for a two-level distribute/for split.

    Returns ``(thread_starts, team_starts)``: element offsets where each
    *active* thread's contiguous chunk begins, and the positions (indices
    into ``thread_starts``) where each active team's group of threads
    begins.  Both arrays are sorted and non-empty for ``n_elements > 0``.
    """
    trip, team_iters, teams, thread_iters, threads_per_team = _schedule(
        n_elements, grid, block, v)
    # Every team but the last keeps all its threads, so team t's first
    # thread is thread t * threads_per_team.
    return (_thread_starts(trip, team_iters, teams, thread_iters, v),
            np.arange(teams, dtype=np.int64) * threads_per_team)


def execute_reduction(data: np.ndarray, kernel: ReductionKernel,
                      second: Optional[np.ndarray] = None):
    """Run *kernel*'s reduction over *data*; returns a scalar of type R.

    *data* may be shorter than ``kernel.elements`` (the functional layer
    runs on size-capped arrays while the performance model reasons about
    the declared size); the schedule shape (grid/block/V) is applied to the
    actual length.  Two-array identifiers (``dot``) take the second
    operand via *second*.
    """
    with tele_span("execute_reduction", category="gpu",
                   kernel=kernel.name, elements=int(data.size),
                   grid=kernel.geometry.grid, block=kernel.geometry.block):
        return _execute_reduction(data, kernel, second)


def _execute_reduction(data: np.ndarray, kernel: ReductionKernel,
                       second: Optional[np.ndarray] = None):
    return _team_level(_thread_level(data, kernel, second), kernel)


def _thread_level(data: np.ndarray, kernel: ReductionKernel,
                  second: Optional[np.ndarray] = None) -> tuple:
    """The executor's first half: *data* to the active threads' partials.

    Returns ``(ufunc, partials, n)``: the combining ufunc, one partial in
    R per active thread, and the length of the reduced values.  An empty
    input and ``argmax`` need no schedule: their ``ufunc`` is ``None``
    and ``partials`` is already the result.  The partials read the
    identifier, T, R, the data and the thread starts, and nothing else of
    the launch, so launches with one :func:`_thread_starts_key` share
    them.
    """
    if data.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {data.shape}")
    rtype = kernel.result_type.numpy
    ident = kernel.identifier
    if ident == "dot":
        if second is None:
            raise UnsupportedReductionError(
                "reduction-identifier 'dot' requires a second input array"
            )
        if second.shape != data.shape or second.dtype != data.dtype:
            raise ValueError(
                f"dot operands must match: {data.dtype}{data.shape} vs "
                f"{second.dtype}{second.shape}"
            )
    elif second is not None:
        raise ValueError(
            f"identifier {ident!r} reduces a single array, got a second "
            "operand"
        )
    if data.size == 0:
        if ident == "argmax":
            return None, rtype.type(-1), 0
        if ident == "dot":
            return None, rtype.type(0), 0
        return None, rtype.type(kernel.op.identity_for(kernel.result_type)), 0
    if data.dtype != kernel.element_type.numpy:
        raise ValueError(
            f"data dtype {data.dtype} does not match kernel element type "
            f"{kernel.element_type.numpy}"
        )

    if ident == "argmax":
        # Geometry-independent by construction (see module notes).
        return None, rtype.type(int(np.argmax(data))), data.size

    if ident == "dot":
        ufunc = _UFUNCS["+"]
        values = data.astype(rtype, copy=False) * second.astype(rtype, copy=False)
    elif ident in _LOGICAL:
        ufunc = _LOGICAL[ident]
        values = (data != 0).astype(rtype)
    elif ident in _UFUNCS:
        ufunc = _UFUNCS[ident]
        values = data
    else:  # pragma: no cover - registry and kernels stay in sync
        raise UnsupportedReductionError(
            f"no executable lowering for identifier {ident!r}"
        )

    v = kernel.elements_per_iteration
    trip, team_iters, teams, thread_iters, _ = _schedule(
        values.size, kernel.geometry.grid, kernel.geometry.block, v)
    # Thread-private accumulation in R (wrapping for ints via the dtype);
    # a one-element chunk accumulates to the element itself.
    if thread_iters * v == 1:
        partials = values.astype(rtype, copy=False)
    else:
        partials = ufunc.reduceat(
            values, _thread_starts(trip, team_iters, teams, thread_iters, v),
            dtype=rtype)
    return ufunc, partials, values.size


def _team_level(level: tuple, kernel: ReductionKernel):
    """The executor's second half: thread partials to the result R.

    *level* is :func:`_thread_level`'s output for a launch with
    *kernel*'s thread starts; the team split is *kernel*'s own.
    """
    ufunc, partials, n = level
    if ufunc is None:
        return partials
    rtype = kernel.result_type.numpy
    _trip, _team_iters, teams, _thread_iters, threads_per_team = _schedule(
        n, kernel.geometry.grid, kernel.geometry.block,
        kernel.elements_per_iteration)
    # End-of-team combine over that team's thread partials.  One team's
    # partials go straight to the final combine: reducing its single
    # team sum once more would change no bit.
    if threads_per_team == 1 or teams == 1:
        team_sums = partials
    else:
        team_sums = ufunc.reduceat(
            partials, np.arange(teams, dtype=np.int64) * threads_per_team,
            dtype=rtype)
    # Final combine across teams (deterministic team order).
    return rtype.type(ufunc.reduce(team_sums, dtype=rtype))
