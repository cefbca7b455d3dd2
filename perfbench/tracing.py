"""Layer spans recorded from outside the program, for the traced runs.

:func:`install` swaps the program's public layer entry points for thin
wrappers that time each call.  A function is rebound in every ``repro``
module that imported it by name, a method on its class, so callers reach
the wrapper however they bound it.  The program's own files are not
changed, and ``repro.telemetry`` stays off: turning it on sends
``gpu_point`` down the scalar pipeline, so a run traced through it would
measure a different program.

A span is ``[id, name, start, end, parent id, tag]``; parents come from a
per-thread stack, so a span's children are the wrapped calls it made on
its own thread.  The two service coroutines are recorded per request id
instead, because coroutines interleave on one thread.  Everything stays
in memory until :meth:`Recorder.dump` writes it when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

# How a target is patched: FN rebinds a function in every repro module
# holding it; ONLY rebinds the name in the one module given (the module
# that calls it); METHOD replaces a class attribute.
FN, ONLY, METHOD = "fn", "only", "method"


def _len_arg(i: int) -> Callable:
    return lambda args, result: len(args[i])


def _nbytes_result(args, result) -> int:
    return int(result["nbytes"])


def _nbytes_arg(args, result) -> int:
    return int(args[0]["nbytes"])


#: (span name, module, attribute, patch mode, tag).  The span name's
#: layer is the text before any ``:``.  The tag records what the call
#: did: points priced, bytes moved, a hit, a record count.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("evaluation", "repro.evaluation.tables", "generate_table1", FN, None),
    ("evaluation", "repro.evaluation.tables", "render_table1", FN, None),
    ("evaluation", "repro.evaluation.figures", "generate_figure1", FN, None),
    ("evaluation", "repro.evaluation.figures", "render_figure1", FN, None),
    ("evaluation", "repro.evaluation.figures", "chart_figure1", FN, None),
    ("evaluation", "repro.evaluation.figures", "generate_coexec_figure",
     FN, None),
    ("evaluation", "repro.evaluation.figures", "render_coexec_figure",
     FN, None),
    ("evaluation", "repro.evaluation.figures", "chart_coexec_figure",
     FN, None),
    ("evaluation", "repro.evaluation.figures", "generate_speedup_figure",
     FN, None),
    ("evaluation", "repro.evaluation.figures", "render_speedup_figure",
     FN, None),
    ("evaluation", "repro.evaluation.report", "full_report", FN, None),
    ("sweep.executor:run", "repro.sweep.executor", "SweepExecutor.run",
     METHOD, _len_arg(2)),
    ("sweep.executor:stream", "repro.sweep.executor",
     "SweepExecutor.run_streaming", METHOD, None),
    ("sweep.fingerprint", "repro.sweep.executor", "SweepExecutor.cache_key",
     METHOD, None),
    # The digest itself, called by cache_key only on a key-memo miss.
    ("sweep.fingerprint:digest", "repro.sweep.executor", "fingerprint",
     ONLY, None),
    ("result_cache.get", "repro.sweep.result_cache", "ResultCache.get",
     METHOD, lambda args, result: result is not None),
    ("result_cache.put", "repro.sweep.result_cache", "ResultCache.put",
     METHOD, None),
    ("sim.batch", "repro.sim.batch", "evaluate_gpu_slab", FN, _len_arg(1)),
    ("gpu.exec_model", "repro.gpu.exec_model", "execute_reduction", FN,
     None),
    # The slab's functional replay calls the private entry directly.
    ("gpu.exec_model", "repro.sim.batch", "_execute_reduction", ONLY, None),
    ("core.coexec", "repro.core.coexec", "measure_coexec_sweep", FN, None),
    ("cpu.exec_model", "repro.cpu.exec_model", "execute_host_reduction",
     FN, None),
    ("sweep.shm:pack", "repro.sweep.shm", "pack_gpu_slab_request", FN,
     _nbytes_result),
    ("sweep.shm", "repro.sweep.shm", "unpack_gpu_slab_request", FN, None),
    ("sweep.shm", "repro.sweep.shm", "pack_gpu_slab_response", FN, None),
    ("sweep.shm:unpack", "repro.sweep.shm", "unpack_gpu_slab_response", FN,
     _nbytes_arg),
    ("faults.supervisor", "repro.faults.supervisor",
     "SupervisedWorkerPool.run", METHOD,
     lambda args, result: args[0].restarts),
    # The job runner's own work, timed piece by piece so that whatever
    # run_job does besides these stays `other`: the spec and state reads
    # and writes, the checkpoint read, the spec reload on resume, and the
    # whole-stream points digest.
    ("jobs.manager", "repro.jobs.manager", "read_json", ONLY, None),
    ("jobs.manager", "repro.jobs.manager", "atomic_write_json", ONLY, None),
    ("jobs.manager", "repro.jobs.manager", "_write_state", ONLY, None),
    ("jobs.manager", "repro.jobs.manager", "read_checkpoint", ONLY, None),
    ("jobs.manager", "repro.jobs.manager", "load_job_spec", FN, None),
    ("jobs.manager", "repro.jobs.api", "JobSpec.points_digest", METHOD,
     None),
    ("jobs.store:append", "repro.jobs.store", "ResultStore.append", METHOD,
     None),
    ("jobs.store:flush", "repro.jobs.store", "ResultStore.flush", METHOD,
     None),
    ("jobs.store:recover", "repro.jobs.store", "ResultStore.recover", METHOD,
     lambda args, result: int(result)),
    ("jobs.checkpoint", "repro.jobs.checkpoint", "write_checkpoint", FN,
     None),
    ("jobs.checkpoint", "repro.jobs.store", "ResultStore.write_manifest",
     METHOD, None),
    ("service.parse", "repro.service.api", "parse_request", FN,
     lambda args, result: result.request_id),
    ("service.admission", "repro.service.admission",
     "AdmissionController.precheck", METHOD,
     lambda args, result: result),
    ("service.admission:enqueue", "repro.service.admission",
     "AdmissionController.enqueue", METHOD,
     lambda args, result: (result, args[0].depth())),
)

#: Modules imported before patching, so every by-name import of a target
#: exists to be rebound.
PRELOAD = (
    "repro.cli", "repro.sim.batch", "repro.sweep.shm",
    "repro.faults.supervisor", "repro.jobs", "repro.jobs.manager",
    "repro.service", "repro.service.http", "repro.evaluation",
    "repro.evaluation.markdown",
)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: request id -> [submit start, submit end]
        self.submits: Dict[str, list] = {}
        #: [start, end, waiters, request ids] per Scheduler.dispatch
        self.dispatches: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    # -- wrappers -------------------------------------------------------------
    def sync(self, name: str, fn: Callable,
             tag: Optional[Callable]) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [next(ids), name, clock(), 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if tag is not None:
                span[5] = tag(args, result)
            return result

        return wrapper

    def submit(self, fn: Callable) -> Callable:
        submits = self.submits

        @functools.wraps(fn)
        async def wrapper(service, request, *args, **kwargs):
            start = clock()
            response = await fn(service, request, *args, **kwargs)
            submits[request.request_id] = [start, clock()]
            return response

        return wrapper

    def dispatch(self, fn: Callable) -> Callable:
        dispatches = self.dispatches

        @functools.wraps(fn)
        async def wrapper(scheduler, batch, *args, **kwargs):
            ids = [pending.request.request_id
                   for waiters in batch.entries.values()
                   for pending in waiters]
            start = clock()
            try:
                return await fn(scheduler, batch, *args, **kwargs)
            finally:
                dispatches.append([start, clock(), batch.waiters, ids])

        return wrapper

    def dump(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "submits": self.submits,
            "dispatches": self.dispatches,
        }


def _rebind(original: Any, replacement: Any) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every target in :data:`TARGETS` and the two service coroutines."""
    for name in PRELOAD:
        importlib.import_module(name)
    for span_name, module_name, attr, mode, tag in TARGETS:
        module = importlib.import_module(module_name)
        if mode == METHOD:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method,
                    recorder.sync(span_name, getattr(cls, method), tag))
            continue
        original = getattr(module, attr)
        wrapper = recorder.sync(span_name, original, tag)
        if mode == ONLY:
            setattr(module, attr, wrapper)
        else:
            _rebind(original, wrapper)
    from repro.service.scheduler import ReductionService, Scheduler

    ReductionService.submit = recorder.submit(ReductionService.submit)
    Scheduler.dispatch = recorder.dispatch(Scheduler.dispatch)


# -- reduction --------------------------------------------------------------


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> its duration minus the durations of its child spans."""
    child: Dict[int, float] = {}
    for sid, _name, start, end, parent, _tag in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {
        span[0]: (span[3] - span[2]) - child.get(span[0], 0.0)
        for span in spans
    }

