"""Process-global telemetry state and the fast no-op path.

The switch decides one thing: whether spans are recorded.  An
instrumented site runs the same code either way — one ``with span(...)``,
which while off returns a shared no-op context — and the metrics
registry, like the counts the sim trace and the two caches keep, is live
whatever the switch says.  (The service's request tracing also needs a
sample rate: see :mod:`repro.obs.trace`.)  Telemetry is **off by default**.  Turn it on
with

* ``REPRO_TELEMETRY=1`` in the environment (inherited by sweep worker
  processes, which is how worker-side spans get recorded), or
* :func:`configure` (what ``repro --trace-out`` and ``repro profile``
  do).
"""

from __future__ import annotations

import os
from typing import Any, Optional

from .metrics import MetricsRegistry
from .spans import NOOP_SPAN, SpanRecorder

__all__ = [
    "TELEMETRY_ENV",
    "Telemetry",
    "configure",
    "enabled",
    "get_telemetry",
    "metrics",
    "span",
]

#: Environment variable enabling telemetry ("1"/"true"/"yes"/"on").
TELEMETRY_ENV = "REPRO_TELEMETRY"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def _env_enabled() -> bool:
    return os.environ.get(TELEMETRY_ENV, "").strip().lower() in _TRUTHY


class Telemetry:
    """A span recorder behind the enable switch, plus the metrics registry."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = _env_enabled() if enabled is None else enabled
        self.recorder = SpanRecorder()
        self.registry = MetricsRegistry()

    def reset(self) -> None:
        """Drop all recorded spans and metrics (the enable flag stays)."""
        self.recorder.clear()
        self.registry.clear()


_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-global telemetry instance."""
    return _TELEMETRY


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return _TELEMETRY.enabled


def configure(enabled: Optional[bool] = None, reset: bool = False) -> Telemetry:
    """Flip the global enable switch and/or clear recorded data."""
    if reset:
        _TELEMETRY.reset()
    if enabled is not None:
        _TELEMETRY.enabled = enabled
        if enabled:
            # Worker processes (including spawn-start pools) resolve their
            # own state from the environment.
            os.environ[TELEMETRY_ENV] = "1"
        else:
            os.environ.pop(TELEMETRY_ENV, None)
    return _TELEMETRY


class _NoopContext:
    """Reusable context manager yielding the shared no-op span."""

    __slots__ = ()

    def __enter__(self):
        return NOOP_SPAN

    def __exit__(self, *exc_info):
        return False


_NOOP_CONTEXT = _NoopContext()


def span(name: str, category: str = "repro", **attributes: Any):
    """Context manager recording a span — or a shared no-op when disabled."""
    if not _TELEMETRY.enabled:
        return _NOOP_CONTEXT
    return _TELEMETRY.recorder.span(name, category=category, **attributes)


def metrics() -> MetricsRegistry:
    """The global metrics registry (live even when spans are disabled)."""
    return _TELEMETRY.registry
