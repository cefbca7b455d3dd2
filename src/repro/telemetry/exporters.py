"""Exporters: Chrome-trace JSON, plain JSON snapshots, ASCII views.

Three ways out of the telemetry layer:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the ``trace_event``
  format (load the file in ``chrome://tracing`` or ``ui.perfetto.dev``).
  Wall-clock spans render one process row per OS process (worker spans
  re-parent under the coordinator), and the simulated device activity
  from :meth:`repro.sim.trace.Trace.to_events` renders as its own
  process with one lane per modeled resource (GPU SM groups, C2C link,
  CPU) on the *sim* clock — the modeled GH200 timeline, the
  reproduction's stand-in for the paper's Nsight screenshots.
* :func:`snapshot` — everything (spans, metrics, sim trace) as one plain
  JSON document, consumed by ``repro profile view``.
* :func:`render_summary` / :func:`render_flame` — ASCII aggregate table
  and call-tree view for terminals.

Before any of them, :func:`publish_counts` copies the counts their owners
keep (the sim trace, the result cache, the compile cache) into the
registry, under the one set of names every export carries.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..util.tables import AsciiTable
from ..util.units import format_bytes, format_time
from .metrics import MetricsRegistry
from .spans import Span
from .state import Telemetry, get_telemetry

__all__ = [
    "SIM_PID",
    "publish_counts",
    "chrome_trace",
    "write_chrome_trace",
    "snapshot",
    "write_snapshot",
    "render_summary",
    "render_flame",
]

#: The pid under which simulated-clock lanes render (real pids are >= 1).
SIM_PID = 0

#: Result-cache counts published as ``sweep.result_cache.<name>``.
_RESULT_CACHE_COUNTS = (
    "hits", "misses", "stores", "evictions", "checksum_failures",
    "quarantined",
)


def _hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def publish_counts(
    registry: MetricsRegistry, trace: Any, result_cache: Any = None,
    values: Any = None,
) -> None:
    """Set gauges from the counts their owners keep, at export time.

    The sim :class:`~repro.sim.trace.Trace`, the machine's
    :class:`~repro.sim.values.ValueLayer` (*values*), the
    :class:`~repro.sweep.result_cache.ResultCache` and the process-wide
    compile cache count their own events whatever the telemetry switch
    says; ``/metrics``, the CLI's exports and
    ``examples/reproduce_paper.py`` call this before they read the
    registry.  The ``sim.*`` values are the
    trace's whole-run totals, evicted records included; the
    ``sim.values.*`` ones are the value layer's hits, misses, evictions
    and what it keeps.
    """
    from ..compiler.cache import compile_cache_stats

    hits, misses, entries = compile_cache_stats()
    registry.gauge("compiler.cache.hits").set(hits)
    registry.gauge("compiler.cache.misses").set(misses)
    registry.gauge("compiler.cache.entries").set(entries)
    registry.gauge("compiler.cache.hit_ratio").set(_hit_ratio(hits, misses))
    if result_cache is not None:
        for name in _RESULT_CACHE_COUNTS:
            registry.gauge(f"sweep.result_cache.{name}").set(
                getattr(result_cache, name)
            )
        registry.gauge("sweep.result_cache.hit_ratio").set(
            _hit_ratio(result_cache.hits, result_cache.misses)
        )
    if values is not None:
        for name, count in values.counts().items():
            registry.gauge(f"sim.values.{name}").set(count)
    registry.gauge("sim.kernel_seconds").set(trace.kernel_seconds)
    for name, label, counts in (
        ("sim.kernel_launches", "kernel", trace.launches_by_kernel),
        ("sim.migrated_bytes", "reason", trace.migrated_bytes_by_reason),
        ("sim.migrations", "reason", trace.migrations_by_reason),
        ("sim.remote_access_bytes", "accessor",
         trace.remote_bytes_by_accessor),
    ):
        # list(): a recording thread may add a key while this reads.
        for value, count in list(counts.items()):
            registry.gauge(name, **{label: value}).set(count)


def _wall_events(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Complete ("X") events for wall-clock spans, ts in microseconds.

    Spans carrying cross-process trace-context attributes additionally
    emit Chrome *flow* events: ``flow_out`` (a flow id string, set by a
    producing span such as ``service.request`` at enqueue) becomes a
    flow-start (``ph: "s"``), and ``flow_in`` (a list of flow ids on a
    consuming span such as ``service.batch``) becomes flow-finishes
    (``ph: "f"``, binding-point ``e``) — so Perfetto draws arrows from
    each request to the batch that served it, across processes.
    """
    if not spans:
        return []
    t0 = min(sp.start for sp in spans)
    events: List[Dict[str, Any]] = []
    for sp in spans:
        args = dict(sp.attributes)
        args["span_id"] = sp.span_id
        if sp.parent_id is not None:
            args["parent_id"] = sp.parent_id
        start_us = (sp.start - t0) * 1e6
        events.append(
            {
                "name": sp.name,
                "cat": sp.category,
                "ph": "X",
                "ts": start_us,
                "dur": sp.duration * 1e6,
                "pid": sp.pid,
                "tid": sp.tid,
                "args": args,
            }
        )
        flow_out = sp.attributes.get("flow_out")
        if isinstance(flow_out, str):
            events.append(
                {
                    "name": "trace",
                    "cat": "obs.flow",
                    "ph": "s",
                    "id": flow_out,
                    "ts": start_us,
                    "pid": sp.pid,
                    "tid": sp.tid,
                }
            )
        flow_in = sp.attributes.get("flow_in")
        if isinstance(flow_in, (list, tuple)):
            for fid in flow_in:
                if not isinstance(fid, str):
                    continue
                events.append(
                    {
                        "name": "trace",
                        "cat": "obs.flow",
                        "ph": "f",
                        "bp": "e",
                        "id": fid,
                        "ts": start_us,
                        "pid": sp.pid,
                        "tid": sp.tid,
                    }
                )
    return events


def _metadata_events(spans: Sequence[Span], coordinator_pid: Optional[int]) -> List[Dict[str, Any]]:
    """Process/thread name metadata ("M") events for every lane."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": SIM_PID,
            "tid": 0,
            "args": {"name": "simulated GH200 (sim clock)"},
        }
    ]
    seen = set()
    for sp in spans:
        if sp.pid in seen:
            continue
        seen.add(sp.pid)
        role = "repro" if sp.pid == coordinator_pid else "sweep worker"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": sp.pid,
                "tid": 0,
                "args": {"name": f"{role} (wall clock, pid {sp.pid})"},
            }
        )
    return events


def chrome_trace(
    spans: Optional[Sequence[Span]] = None,
    trace: Any = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Build the full Chrome-trace document (a JSON-serializable dict)."""
    spans = list(spans if spans is not None else get_telemetry().recorder.snapshot())
    coordinator_pid = min((sp.pid for sp in spans), default=None)
    events = _metadata_events(spans, coordinator_pid)
    if trace is not None:
        events.extend(trace.to_events())
    events.extend(_wall_events(spans))
    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry"},
    }
    if registry is not None:
        doc["otherData"]["metrics"] = registry.snapshot()
    return doc


def write_chrome_trace(
    path: "str | Path",
    spans: Optional[Sequence[Span]] = None,
    trace: Any = None,
    registry: Optional[MetricsRegistry] = None,
) -> Path:
    """Write :func:`chrome_trace` to *path*; returns the path."""
    path = Path(path)
    doc = chrome_trace(spans, trace=trace, registry=registry)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return path


def snapshot(
    telemetry: Optional[Telemetry] = None, trace: Any = None
) -> Dict[str, Any]:
    """Plain-JSON dump: spans + metrics (+ sim trace summary/events)."""
    telemetry = telemetry or get_telemetry()
    doc: Dict[str, Any] = {
        "format": "repro-telemetry-snapshot",
        "version": 1,
        "spans": [sp.to_dict() for sp in telemetry.recorder.snapshot()],
        "metrics": telemetry.registry.snapshot(),
    }
    if trace is not None:
        doc["trace_summary"] = trace.summary()
        doc["trace_events"] = trace.to_events()
    return doc


def write_snapshot(
    path: "str | Path",
    telemetry: Optional[Telemetry] = None,
    trace: Any = None,
) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(snapshot(telemetry, trace), indent=1, sort_keys=True),
        encoding="utf-8",
    )
    return path


# -- ASCII views --------------------------------------------------------------


def _children_index(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    by_parent: Dict[Optional[str], List[Span]] = defaultdict(list)
    ids = {sp.span_id for sp in spans}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in ids else None
        by_parent[parent].append(sp)
    for children in by_parent.values():
        children.sort(key=lambda sp: sp.start)
    return by_parent


def render_summary(
    spans: Optional[Sequence[Span]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Aggregate table: per span name, calls / total / self / mean time."""
    telemetry = get_telemetry()
    spans = list(spans if spans is not None else telemetry.recorder.snapshot())
    registry = registry if registry is not None else telemetry.registry

    child_time: Dict[str, float] = defaultdict(float)
    for sp in spans:
        if sp.parent_id is not None:
            child_time[sp.parent_id] += sp.duration

    agg: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for sp in spans:
        row = agg[(sp.category, sp.name)]
        row[0] += 1
        row[1] += sp.duration
        row[2] += max(0.0, sp.duration - child_time.get(sp.span_id, 0.0))

    lines: List[str] = [f"telemetry summary: {len(spans)} spans"]
    table = AsciiTable(["category", "span", "calls", "total", "self", "mean"])
    for (category, name), (calls, total, self_time) in sorted(
        agg.items(), key=lambda kv: -kv[1][2]
    ):
        table.add_row(
            [
                category,
                name,
                int(calls),
                format_time(total),
                format_time(self_time),
                format_time(total / calls),
            ]
        )
    if agg:
        lines.append(table.render())

    metric_rows = registry.snapshot()
    if metric_rows:
        mtable = AsciiTable(["metric", "labels", "value"])
        for entry in metric_rows:
            labels = ",".join(f"{k}={v}" for k, v in entry["labels"].items())
            if entry["type"] == "histogram":
                value = (
                    f"count={entry['count']} sum={entry['sum']:.6g} "
                    f"mean={(entry['sum'] / entry['count']) if entry['count'] else 0:.6g}"
                )
            elif "bytes" in entry["name"] and entry["value"] is not None:
                value = f"{entry['value']} ({format_bytes(entry['value'])})"
            else:
                value = entry["value"]
            mtable.add_row([entry["name"], labels or "-", value])
        lines.append("")
        lines.append(mtable.render())
    return "\n".join(lines)


def render_flame(
    spans: Optional[Sequence[Span]] = None, max_depth: int = 12
) -> str:
    """Indented call-tree ("ASCII flame") view of the span hierarchy."""
    spans = list(
        spans if spans is not None else get_telemetry().recorder.snapshot()
    )
    if not spans:
        return "(no spans recorded)"
    by_parent = _children_index(spans)
    lines: List[str] = []

    def walk(sp: Span, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{sp.category}.{sp.name}  {format_time(sp.duration)}"
        )
        if depth + 1 >= max_depth:
            return
        children = by_parent.get(sp.span_id, [])
        # Collapse repetitive fan-out (e.g. 60 sweep points) to keep the
        # view readable: identical child names group into one line.
        groups: Dict[tuple, List[Span]] = defaultdict(list)
        for child in children:
            groups[(child.category, child.name)].append(child)
        for (category, name), group in groups.items():
            if len(group) > 3:
                total = sum(c.duration for c in group)
                lines.append(
                    f"{indent}  {category}.{name} x{len(group)}  "
                    f"{format_time(total)} total"
                )
                deepest = max(group, key=lambda c: c.duration)
                for grandchild in by_parent.get(deepest.span_id, []):
                    walk(grandchild, depth + 2)
            else:
                for child in group:
                    walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
