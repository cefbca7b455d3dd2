"""A classic three-state circuit breaker (closed → open → half-open).

The service scheduler feeds it two failure signals: compute failures
that exhausted their retries, and admission-queue saturation.  The
coordinator keeps one per worker node, fed by
:class:`~repro.faults.policy.CallPolicy` with each call's outcome.  While
open, the service answers compute-path traffic with the cheap analytic
degraded response instead of queueing work it cannot finish; after
``cooldown_s`` a bounded number of half-open probe requests are let
through, and one success closes the breaker again.

State and every transition are mirrored into the metrics registry
(``breaker.state`` gauge, ``breaker.transitions`` counters), so chaos
runs and ``/metrics`` can watch the breaker move.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..obs.flight import flight
from ..telemetry.metrics import MetricsRegistry

__all__ = ["CircuitBreaker", "STATE_CLOSED", "STATE_HALF_OPEN", "STATE_OPEN"]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

_STATE_GAUGE = {STATE_CLOSED: 0.0, STATE_HALF_OPEN: 1.0, STATE_OPEN: 2.0}


class CircuitBreaker:
    """Consecutive-failure breaker with a cooldown and half-open probes."""

    def __init__(
        self,
        name: str = "service",
        failure_threshold: int = 5,
        cooldown_s: float = 2.0,
        half_open_probes: int = 1,
        registry: Optional[MetricsRegistry] = None,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_probes = max(1, half_open_probes)
        self.registry = registry or MetricsRegistry()
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_left = 0
        self._gauge = self.registry.gauge("breaker.state", breaker=name)
        self._gauge.set(_STATE_GAUGE[STATE_CLOSED])

    # -- introspection --------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def describe(self) -> str:
        with self._lock:
            return (
                f"breaker {self.name}: {self._state} "
                f"({self._failures}/{self.failure_threshold} failures)"
            )

    # -- transitions ----------------------------------------------------------
    def _transition(self, state: str) -> None:
        # Caller holds the lock.
        if state == self._state:
            return
        previous = self._state
        self._state = state
        self._gauge.set(_STATE_GAUGE[state])
        self.registry.counter(
            "breaker.transitions", breaker=self.name, to=state
        ).add(1)
        recorder = flight()
        recorder.record(
            "breaker", "transition",
            breaker=self.name, from_state=previous, to_state=state,
            failures=self._failures,
        )
        if state == STATE_OPEN:
            # The black-box moment: dump what led up to the trip.
            recorder.dump("breaker_open", breaker=self.name)

    def allow(self, now: float) -> bool:
        """Whether a compute-path request may proceed at time *now*.

        Closed always allows.  Open allows nothing until ``cooldown_s``
        has elapsed, then flips to half-open and hands out its probe
        budget; further requests stay shed until a probe reports back.
        """
        with self._lock:
            if self._state == STATE_CLOSED:
                return True
            if self._state == STATE_OPEN:
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._transition(STATE_HALF_OPEN)
                self._probes_left = self.half_open_probes
            if self._probes_left > 0:
                self._probes_left -= 1
                return True
            return False

    def record_success(self, now: float = 0.0) -> None:
        """A compute-path request finished cleanly."""
        with self._lock:
            self._failures = 0
            if self._state != STATE_CLOSED:
                self._transition(STATE_CLOSED)

    def release(self) -> None:
        """An allowed request ended without an outcome (it never reached
        its target, or was cancelled): hand its half-open probe back."""
        with self._lock:
            if (
                self._state == STATE_HALF_OPEN
                and self._probes_left < self.half_open_probes
            ):
                self._probes_left += 1

    def record_failure(self, now: float) -> None:
        """A compute-path request failed (or the queue saturated)."""
        with self._lock:
            if self._state == STATE_HALF_OPEN:
                # The probe failed: straight back to open, fresh cooldown.
                self._failures = self.failure_threshold
                self._opened_at = now
                self._transition(STATE_OPEN)
                return
            self._failures += 1
            if (
                self._state == STATE_CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._opened_at = now
                self._transition(STATE_OPEN)

    def reset(self) -> None:
        """Force-close (tests and operator tooling)."""
        with self._lock:
            self._failures = 0
            self._probes_left = 0
            self._transition(STATE_CLOSED)
