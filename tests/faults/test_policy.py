"""The one call policy: budget, backoff, hedge race, breaker feed."""

import asyncio
import random
import time

import pytest

from repro.faults.breaker import CircuitBreaker
from repro.faults.policy import (
    FATAL, LOST, RETRY, USABLE, CallPolicy,
)
from repro.telemetry.metrics import MetricsRegistry


class FakeSleep:
    """Records each backoff instead of sleeping."""

    def __init__(self):
        self.delays = []

    async def __call__(self, delay):
        self.delays.append(delay)


def _call(policy, targets, attempt):
    """One call; a list of targets is offered again on every attempt."""
    candidates = targets if callable(targets) else (lambda _tried: targets)
    return asyncio.run(policy.call(candidates, attempt))


def _ring(targets):
    """Candidates that skip targets already tried, as the ring walk does."""
    return lambda tried: [t for t in targets if t not in tried]


class TestBudgetAndBackoff:
    def test_backoff_doubles_from_base_and_caps_at_one_second(self):
        sleep = FakeSleep()
        registry = MetricsRegistry()
        policy = CallPolicy(
            attempts=6, backoff_s=0.3, sleep=sleep, registry=registry,
            name="svc",
        )

        async def attempt(_target):
            return RETRY, "down"

        outcome = _call(policy, ["local"], attempt)
        assert sleep.delays == [0.3, 0.6, 1.0, 1.0, 1.0]
        assert outcome.verdict == RETRY and outcome.value == "down"
        assert outcome.attempts == 6
        assert registry.value("svc.retries") == 5

    def test_jitter_is_seeded_and_added_on_top(self):
        sleep = FakeSleep()
        policy = CallPolicy(
            attempts=4, backoff_s=0.05, jitter_s=0.02, sleep=sleep
        )

        async def attempt(_target):
            return RETRY, None

        _call(policy, ["local"], attempt)
        rng = random.Random(0)
        expected = [
            min(1.0, 0.05 * 2 ** (k - 1)) + rng.uniform(0, 0.02)
            for k in (1, 2, 3)
        ]
        assert sleep.delays == expected

    def test_recovers_after_retries(self):
        sleep = FakeSleep()
        answers = [(RETRY, "a"), (RETRY, "b"), (USABLE, "ok")]

        async def attempt(_target):
            return answers.pop(0)

        outcome = _call(
            CallPolicy(attempts=3, backoff_s=0.01, sleep=sleep),
            ["local"], attempt,
        )
        assert outcome.ok and outcome.value == "ok"
        assert outcome.attempts == 3
        assert sleep.delays == [0.01, 0.02]

    def test_fatal_answer_is_not_retried(self):
        sleep = FakeSleep()
        registry = MetricsRegistry()
        calls = []

        async def attempt(target):
            calls.append(target)
            return FATAL, "conflict"

        outcome = _call(
            CallPolicy(
                attempts=3, backoff_s=0.01, sleep=sleep, registry=registry,
                name="cluster",
            ),
            ["a", "b", "c"], attempt,
        )
        assert outcome.verdict == FATAL and outcome.value == "conflict"
        assert calls == ["a"] and outcome.attempts == 1
        assert sleep.delays == []
        assert registry.value("cluster.retries") is None

    def test_no_target_means_no_attempt(self):
        async def attempt(_target):  # pragma: no cover - never called
            raise AssertionError("called without a target")

        outcome = _call(CallPolicy(attempts=3, backoff_s=0.01), [], attempt)
        assert outcome.verdict is None and outcome.attempts == 0

    def test_unclassified_exception_propagates(self):
        async def attempt(_target):
            raise KeyError("bug")

        with pytest.raises(KeyError):
            _call(CallPolicy(attempts=3, backoff_s=0.0), ["a"], attempt)


class TestHedge:
    def test_slow_primary_loses_to_the_hedge(self):
        registry = MetricsRegistry()
        cancelled = []

        async def attempt(target):
            if target == "slow":
                try:
                    await asyncio.sleep(30)
                except asyncio.CancelledError:
                    cancelled.append(target)
                    raise
            return USABLE, target

        policy = CallPolicy(
            attempts=3, backoff_s=0.01, hedge_delay_s=0.02,
            registry=registry, name="cluster",
        )
        started = time.monotonic()
        outcome = asyncio.run(policy.call(_ring(["slow", "fast"]), attempt))
        assert time.monotonic() - started < 10
        assert outcome.ok and outcome.value == "fast"
        assert outcome.attempts == 2
        assert cancelled == ["slow"]
        assert registry.value("cluster.hedges") == 1

    def test_hedges_share_the_attempt_budget(self):
        registry = MetricsRegistry()
        sleep = FakeSleep()
        started = []

        async def attempt(target):
            started.append(target)
            await asyncio.sleep(0.2)
            return RETRY, target

        policy = CallPolicy(
            attempts=2, backoff_s=0.01, hedge_delay_s=0.02, sleep=sleep,
            registry=registry, name="cluster",
        )
        outcome = asyncio.run(
            policy.call(_ring(["a", "b", "c"]), attempt)
        )
        assert started == ["a", "b"]
        assert outcome.verdict == RETRY and outcome.attempts == 2
        assert registry.value("cluster.hedges") == 1
        assert registry.value("cluster.retries") is None
        assert sleep.delays == []

    def test_no_hedge_without_a_spare_target(self):
        registry = MetricsRegistry()

        async def attempt(target):
            await asyncio.sleep(0.1)
            return USABLE, target

        policy = CallPolicy(
            attempts=3, backoff_s=0.01, hedge_delay_s=0.01,
            registry=registry, name="cluster",
        )
        outcome = asyncio.run(policy.call(_ring(["only"]), attempt))
        assert outcome.ok and outcome.attempts == 1
        assert registry.value("cluster.hedges") is None


class TestBreakerFeed:
    def _policy(self, breakers, **kwargs):
        return CallPolicy(
            attempts=kwargs.pop("attempts", 3), backoff_s=0.0,
            breaker_for=breakers.__getitem__, **kwargs,
        )

    def _breakers(self, *names, threshold=1, cooldown=0.0):
        return {
            name: CircuitBreaker(
                name=name, failure_threshold=threshold, cooldown_s=cooldown
            )
            for name in names
        }

    def test_only_the_called_target_is_asked(self):
        breakers = self._breakers("a", "b")
        breakers["a"].record_failure(time.monotonic())  # open, cooled

        async def attempt(target):
            return USABLE, target

        # "b" first: "a" is never asked, so it stays open, probe unspent.
        outcome = _call(self._policy(breakers), ["b", "a"], attempt)
        assert outcome.value == "b"
        assert breakers["a"].state == "open"
        # Asked when it is the one to call: half-open probe, then closed.
        outcome = _call(self._policy(breakers), ["a", "b"], attempt)
        assert outcome.value == "a"
        assert breakers["a"].state == "closed"

    def test_retryable_answer_counts_against_the_target(self):
        breakers = self._breakers("a", "b", threshold=2)

        async def attempt(target):
            return (RETRY, None) if target == "a" else (USABLE, target)

        outcome = _call(self._policy(breakers), _ring(["a", "b"]), attempt)
        assert outcome.value == "b" and outcome.attempts == 2
        _call(self._policy(breakers), _ring(["a", "b"]), attempt)
        assert breakers["a"].state == "open"
        assert breakers["b"].state == "closed"

    def test_lost_attempt_spends_budget_not_the_breaker(self):
        breakers = self._breakers("a")

        async def attempt(_target):
            return LOST, None

        outcome = _call(
            self._policy(breakers, attempts=3), ["a"], attempt
        )
        assert outcome.verdict == LOST and outcome.attempts == 3
        assert breakers["a"].state == "closed"

    def test_lost_attempt_hands_a_half_open_probe_back(self):
        breakers = self._breakers("a")
        breakers["a"].record_failure(time.monotonic())
        answers = [(LOST, None), (USABLE, "a")]

        async def attempt(_target):
            return answers.pop(0)

        outcome = _call(self._policy(breakers), ["a"], attempt)
        assert outcome.ok and outcome.attempts == 2
        assert breakers["a"].state == "closed"

    def test_cancelled_hedge_loser_hands_its_probe_back(self):
        breakers = self._breakers("slow", "fast")
        breakers["slow"].record_failure(time.monotonic())

        async def attempt(target):
            if target == "slow":
                await asyncio.sleep(30)
            return USABLE, target

        policy = self._policy(breakers, hedge_delay_s=0.02)
        outcome = asyncio.run(policy.call(_ring(["slow", "fast"]), attempt))
        assert outcome.value == "fast"
        assert breakers["slow"].state == "half_open"
        # The probe came back: the next call may still go to "slow".
        assert breakers["slow"].allow(time.monotonic())
