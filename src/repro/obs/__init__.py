"""Production observability: tracing, time series, SLOs, flight recorder.

:mod:`repro.obs` layers request-scoped *distributed* observability on
top of the in-process :mod:`repro.telemetry` primitives:

* :mod:`~repro.obs.trace` — a propagated :class:`TraceContext` (128-bit
  trace id, parent span id, sampling bit) minted at service admission,
  carried on the ``x-repro-trace`` HTTP header and threaded through the
  batcher, scheduler, worker pool and slab evaluation, so one sampled
  request renders as a single causal tree across processes.
* :mod:`~repro.obs.tsdb` — a bounded ring-buffer time-series store that
  snapshots the metrics registry at a fixed interval.
* :mod:`~repro.obs.slo` — declarative service-level objectives with
  multi-window burn-rate evaluation over the tsdb, surfaced on
  ``GET /health`` and ``repro slo check``.
* :mod:`~repro.obs.flight` — a per-process flight recorder (black box)
  ring of recent events, dumped to JSON on crash-adjacent transitions.
* :mod:`~repro.obs.promtext` — Prometheus text exposition for the
  metrics registry, negotiated on ``GET /metrics``.

Every span here is built by the telemetry recorder
(:meth:`repro.telemetry.SpanRecorder.open`), and tracing, like the
telemetry switch, only adds spans: it never changes what runs.  The
flight recorder is off by default, and its ``record``/``dump`` return at
once while it is off, so call sites need no guard.
"""

from .flight import FLIGHT_ENV, FlightRecorder, configure_flight, flight
from .promtext import PROM_CONTENT_TYPE, prometheus_text
from .slo import DEFAULT_OBJECTIVES, Objective, SLOEngine, parse_slo_config
from .trace import TRACE_HEADER, TraceContext, mint_context, sample_decision
from .tsdb import TimeSeriesStore

__all__ = [
    "FLIGHT_ENV",
    "FlightRecorder",
    "configure_flight",
    "flight",
    "PROM_CONTENT_TYPE",
    "prometheus_text",
    "DEFAULT_OBJECTIVES",
    "Objective",
    "SLOEngine",
    "parse_slo_config",
    "TRACE_HEADER",
    "TraceContext",
    "mint_context",
    "sample_decision",
    "TimeSeriesStore",
]
