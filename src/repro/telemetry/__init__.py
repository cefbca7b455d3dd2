"""Unified observability: spans, metrics, and timeline export.

The paper's evidence is profiler output — §III.C checks kernel grid sizes
against ``num_teams`` and attributes slowdowns to page-migration traffic
straight from an Nsight-style timeline.  This package makes the
reproduction's equivalents first-class:

* **Spans** (:mod:`~repro.telemetry.spans`) — hierarchical wall-clock
  regions over the whole pipeline: ``NvhpcCompiler.compile``, launch
  geometry resolution, the event engine, functional GPU/CPU execution,
  and every sweep stage and point (worker-side spans ship back with the
  results and re-parent under the coordinator).
* **Metrics** (:mod:`~repro.telemetry.metrics`) — counters, gauges and
  fixed-bucket histograms: bytes migrated by reason, launches by kernel,
  cache hit ratios, sweep points per stage.
* **Exporters** (:mod:`~repro.telemetry.exporters`) — Chrome-trace /
  Perfetto JSON (wall-clock rows plus simulated device lanes on the sim
  clock), plain JSON snapshots, and ASCII summary / flame views.

The switch (``REPRO_TELEMETRY=1`` or :func:`configure`; see
:mod:`~repro.telemetry.state`) only adds spans: it is off by default,
each instrumented site runs one ``with span(...)`` with it on or off
(the service also samples which requests it traces), and metrics are
recorded either way.  Counts that their owners keep — the
sim trace, the result cache, the compile cache — reach the registry
through one export-time call, :func:`publish_counts`.  See
docs/OBSERVABILITY.md for the span taxonomy and metric names.
"""

from .exporters import (
    SIM_PID,
    chrome_trace,
    publish_counts,
    render_flame,
    render_summary,
    snapshot,
    write_chrome_trace,
    write_snapshot,
)
from .metrics import (
    BYTES_BUCKETS,
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import Span, SpanRecorder
from .state import (
    TELEMETRY_ENV,
    Telemetry,
    configure,
    enabled,
    get_telemetry,
    metrics,
    span,
)

__all__ = [
    "BYTES_BUCKETS",
    "Counter",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SIM_PID",
    "Span",
    "SpanRecorder",
    "TELEMETRY_ENV",
    "Telemetry",
    "chrome_trace",
    "configure",
    "enabled",
    "get_telemetry",
    "metrics",
    "publish_counts",
    "render_flame",
    "render_summary",
    "snapshot",
    "span",
    "write_chrome_trace",
    "write_snapshot",
]
