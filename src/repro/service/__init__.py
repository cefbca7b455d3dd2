"""repro.service — reduction-as-a-service (async, batched, deduped).

The service turns the one-shot CLI reproduction into a shared simulation
backend: clients POST reduction-simulation requests (structured config
or OpenMP directive source) and get predicted time/bandwidth plus trace
summaries back.  The pipeline is

    HTTP front end -> admission control -> micro-batcher -> scheduler
    (``http.py``)     (``admission.py``)   (``batcher.py``)  (``scheduler.py``)

with the scheduler resolving fingerprints against the persistent sweep
:class:`~repro.sweep.result_cache.ResultCache`, in-flight computations,
and finally the :class:`~repro.sweep.executor.SweepExecutor`.
``loadgen.py`` is the client side: a concurrent load generator with
latency-percentile reduction.

Everything is stdlib-only (``asyncio`` + ``json``) and off by default —
nothing here runs unless ``repro serve`` / ``repro loadtest`` or the
library API below is used explicitly.  See docs/SERVICE.md.
"""

from .admission import AdmissionController, PendingRequest, TokenBucket
from .api import (
    ServiceValidationError,
    SimRequest,
    SimResponse,
    config_from_directive,
    parse_request,
    summarize_record,
)
from .batcher import MicroBatch, MicroBatcher
from .http import ServiceHTTPServer
from .loadgen import LoadReport, build_preset, percentile, run_load
from .scheduler import ReductionService, Scheduler, ServiceSettings

__all__ = [
    "AdmissionController",
    "LoadReport",
    "MicroBatch",
    "MicroBatcher",
    "PendingRequest",
    "ReductionService",
    "Scheduler",
    "ServiceHTTPServer",
    "ServiceSettings",
    "ServiceValidationError",
    "SimRequest",
    "SimResponse",
    "TokenBucket",
    "build_preset",
    "config_from_directive",
    "parse_request",
    "percentile",
    "run_load",
    "summarize_record",
]
