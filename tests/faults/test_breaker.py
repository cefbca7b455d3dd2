"""Circuit-breaker state machine: closed -> open -> half-open -> closed."""

import sys
import threading

import pytest

from repro.faults import (
    CircuitBreaker, STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
)
from repro.telemetry.metrics import MetricsRegistry


def _breaker(**kwargs) -> CircuitBreaker:
    defaults = dict(
        name="test", failure_threshold=3, cooldown_s=10.0, half_open_probes=1,
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestTransitions:
    def test_starts_closed_and_allows(self):
        breaker = _breaker()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow(now=0.0)

    def test_opens_at_failure_threshold(self):
        breaker = _breaker(failure_threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == STATE_CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == STATE_OPEN
        assert not breaker.allow(now=3.5)

    def test_success_resets_the_failure_streak(self):
        breaker = _breaker(failure_threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success()
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state == STATE_CLOSED

    def test_cooldown_gates_the_half_open_probe(self):
        breaker = _breaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(100.0)
        assert not breaker.allow(now=105.0)  # mid-cooldown
        assert breaker.allow(now=111.0)      # cooldown elapsed: probe
        assert breaker.state == STATE_HALF_OPEN

    def test_half_open_probe_budget_is_bounded(self):
        breaker = _breaker(
            failure_threshold=1, cooldown_s=1.0, half_open_probes=2,
        )
        breaker.record_failure(0.0)
        assert breaker.allow(now=2.0)
        assert breaker.allow(now=2.0)
        assert not breaker.allow(now=2.0)  # probes exhausted, still no verdict

    def test_release_hands_a_spent_probe_back_once(self):
        breaker = _breaker(failure_threshold=1, cooldown_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(now=2.0)
        assert not breaker.allow(now=2.0)
        breaker.release()  # the probe never reached its target
        breaker.release()  # a second release cannot exceed the budget
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow(now=2.0)
        assert not breaker.allow(now=2.0)

    def test_release_is_a_no_op_when_closed(self):
        breaker = _breaker()
        breaker.release()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow(now=0.0)

    def test_concurrent_probe_and_release_keep_the_budget(self):
        breaker = _breaker(
            failure_threshold=1, cooldown_s=1.0, half_open_probes=2,
        )
        breaker.record_failure(0.0)

        def churn():
            for _ in range(2000):
                if breaker.allow(now=2.0):
                    breaker.release()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Every probe taken was handed back: exactly the budget is left.
        assert [breaker.allow(now=2.0) for _ in range(3)] == [
            True, True, False,
        ]

    def test_successful_probe_closes(self):
        breaker = _breaker(failure_threshold=1, cooldown_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(now=2.0)
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow(now=2.1)

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker = _breaker(failure_threshold=3, cooldown_s=10.0)
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.allow(now=14.0)  # half-open probe
        breaker.record_failure(14.5)    # probe failed
        assert breaker.state == STATE_OPEN
        assert not breaker.allow(now=20.0)  # fresh cooldown from 14.5
        assert breaker.allow(now=25.0)

    def test_reset_force_closes(self):
        breaker = _breaker(failure_threshold=1)
        breaker.record_failure(0.0)
        assert breaker.state == STATE_OPEN
        breaker.reset()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow(now=0.1)


class TestTelemetry:
    def test_gauge_and_transition_counters(self):
        registry = MetricsRegistry()
        breaker = _breaker(
            name="svc", failure_threshold=1, cooldown_s=1.0, registry=registry,
        )
        assert registry.value("breaker.state", breaker="svc") == 0.0
        breaker.record_failure(0.0)
        assert registry.value("breaker.state", breaker="svc") == 2.0
        assert registry.value(
            "breaker.transitions", breaker="svc", to=STATE_OPEN
        ) == 1
        breaker.allow(now=2.0)
        assert registry.value("breaker.state", breaker="svc") == 1.0
        breaker.record_success()
        assert registry.value("breaker.state", breaker="svc") == 0.0
        assert registry.value(
            "breaker.transitions", breaker="svc", to=STATE_CLOSED
        ) == 1

    def test_describe_mentions_state_and_failures(self):
        breaker = _breaker(name="svc", failure_threshold=3)
        breaker.record_failure(0.0)
        assert "svc" in breaker.describe()
        assert "1/3" in breaker.describe()


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _breaker(failure_threshold=0)
        with pytest.raises(ValueError):
            _breaker(cooldown_s=-1.0)
