"""Process-wide compilation cache and shared compiler instance.

The sweep harnesses compile the *same* small family of programs over and
over: the baseline/optimized programs for a case differ only in clause
parameters, and a 60-point Figure 1 sweep re-derives 60 nearly identical
front-end results.  :func:`cached_compile` memoizes
:meth:`NvhpcCompiler.compile` on a content key of the program (pragma
text, loop shape, element/result types, flags) so compiled artifacts are
reused across sweep points, cases, and the :class:`~repro.core.reduce.
OffloadReducer` fast path.

The cache is safe because :class:`CompiledReduction` is an immutable
value object whose :meth:`~CompiledReduction.launch` binds geometry late —
re-launching a cached compilation is exactly as deterministic as
recompiling.

Thread safety: a single lock guards the table (sweep executors may compile
from worker threads); the shared default compiler is stateless apart from
its flags.

The cache counts its own hits and misses whatever the telemetry switch
says (:func:`compile_cache_stats`);
:func:`repro.telemetry.publish_counts` publishes them as
``compiler.cache.*`` at export time.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..telemetry.state import span as tele_span
from .flags import CompilerFlags
from .nvhpc import CompiledReduction, NvhpcCompiler, ReductionLoopProgram

__all__ = [
    "default_compiler",
    "cached_compile",
    "compile_cache_stats",
    "clear_compile_cache",
]

_LOCK = threading.Lock()
_SHARED_COMPILER: Optional[NvhpcCompiler] = None
_CACHE: Dict[tuple, CompiledReduction] = {}
_HITS = 0
_MISSES = 0


def default_compiler() -> NvhpcCompiler:
    """The shared module-level compiler (default ``-O3 -mp=gpu`` flags)."""
    global _SHARED_COMPILER
    with _LOCK:
        if _SHARED_COMPILER is None:
            _SHARED_COMPILER = NvhpcCompiler()
        return _SHARED_COMPILER


def _flags_key(flags: CompilerFlags) -> tuple:
    return (flags.optimization, flags.mp_target, flags.unified_memory)


def _program_key(program: ReductionLoopProgram, flags: CompilerFlags) -> tuple:
    pragma = program.pragma
    pragma_text = pragma if isinstance(pragma, str) else str(pragma)
    loop = program.loop
    return (
        pragma_text,
        loop.var,
        loop.trip_count,
        loop.step,
        loop.increment_form,
        loop.elements_per_iteration,
        loop.test_op,
        str(program.element_type),
        str(program.result_type),
        program.name,
        _flags_key(flags),
    )


def cached_compile(
    program: ReductionLoopProgram,
    compiler: Optional[NvhpcCompiler] = None,
) -> CompiledReduction:
    """Compile *program*, reusing a prior compilation of identical content.

    ``compiler=None`` uses the shared :func:`default_compiler`.  Failed
    compilations are not cached (they raise, as before).
    """
    global _HITS, _MISSES
    comp = compiler or default_compiler()
    key = _program_key(program, comp.flags)
    with _LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            _HITS += 1
    if hit is not None:
        # A hit is still a timeline event: a warm-cache run shows where
        # compilations were reused instead of an empty lane.
        with tele_span(
            "compile.cached", category="compiler", program=program.name
        ):
            return hit
    compiled = comp.compile(program)
    with _LOCK:
        _MISSES += 1
        _CACHE.setdefault(key, compiled)
    return compiled


def compile_cache_stats() -> Tuple[int, int, int]:
    """(hits, misses, entries) of the process-wide compile cache."""
    with _LOCK:
        return _HITS, _MISSES, len(_CACHE)


def clear_compile_cache() -> None:
    """Drop all cached compilations and reset the counters."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
