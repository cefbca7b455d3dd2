"""One call policy: the attempt budget, the backoff and the hedge race.

The service scheduler (one target: its local executor) and the cluster
coordinator (worker nodes in ring order) run every call through
:class:`CallPolicy`, the only retry loop in the program.  Callers list
the targets for each attempt and classify each answer as
:data:`USABLE`, :data:`RETRY`, :data:`FATAL` (never retried) or
:data:`LOST` (it never reached its target).  The policy owns the rest:
an attempt budget that retries and hedges share; a wait of
``min(1 s, backoff_s * 2**(k-1))`` plus a seeded uniform draw from
``[0, jitter_s]`` before the k-th retry; the hedge race, whose loser is
cancelled; and the breakers.  A target's breaker is asked ``allow()``
only when that target is the one about to be called, and only that
call's outcome feeds it: usable is a success, retryable a failure, and
an attempt that says nothing about the target (lost, fatal or
cancelled) hands its half-open probe back.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import (
    Any, Awaitable, Callable, Dict, Iterable, List, NamedTuple, Optional,
    Tuple,
)

from ..telemetry.metrics import MetricsRegistry
from .breaker import CircuitBreaker

__all__ = ["CallOutcome", "CallPolicy", "FATAL", "LOST", "RETRY", "USABLE"]

USABLE = "usable"
RETRY = "retry"
FATAL = "fatal"
LOST = "lost"

#: What an attempt returns: a verdict and the answer (or failure detail).
Verdict = Tuple[str, Any]


class CallOutcome(NamedTuple):
    """The deciding attempt's verdict and value (the last failed one's
    when the budget or the targets ran out; ``None`` when no target
    could be called), and the number of attempts started."""

    verdict: Optional[str]
    value: Any
    attempts: int

    @property
    def ok(self) -> bool:
        return self.verdict == USABLE


class CallPolicy:
    """Retries, backoff and hedging for calls against a set of targets."""

    def __init__(
        self,
        attempts: int,
        backoff_s: float,
        jitter_s: float = 0.0,
        hedge_delay_s: Optional[float] = None,
        breaker_for: Optional[Callable[[Any], CircuitBreaker]] = None,
        registry: Optional[MetricsRegistry] = None,
        name: str = "call",
        sleep: Callable[[float], Awaitable[Any]] = asyncio.sleep,
    ):
        self.attempts = max(1, attempts)
        self.backoff_s = backoff_s
        self.jitter_s = jitter_s
        self.hedge_delay_s = hedge_delay_s or None
        self.breaker_for = breaker_for
        self.registry = registry or MetricsRegistry()
        #: Counter prefix: ``<name>.retries`` and ``<name>.hedges``.
        self.name = name
        self._sleep = sleep
        self._rng = random.Random(0)

    def backoff(self, k: int) -> float:
        """Seconds to wait before the *k*-th retry of a call."""
        delay = min(1.0, self.backoff_s * 2 ** (k - 1))
        if self.jitter_s > 0:
            delay += self._rng.uniform(0, self.jitter_s)
        return delay

    async def call(
        self,
        candidates: Callable[[List[Any]], Iterable[Any]],
        attempt: Callable[[Any], Awaitable[Verdict]],
    ) -> CallOutcome:
        """Attempt until an answer is usable or fatal, or the budget ends.

        ``candidates(tried)`` lists the targets for the next attempt in
        preference order, given those already tried; ``attempt(target)``
        makes one call and classifies its answer.  An exception out of
        ``attempt`` cancels the call's other attempts and propagates.
        """
        tried: List[Any] = []
        pending: Dict["asyncio.Future", Any] = {}
        last: Tuple[Optional[str], Any] = (None, None)
        retries = 0
        hedging = self.hedge_delay_s is not None

        def launch() -> bool:
            if len(tried) >= self.attempts:
                return False
            target = self._choose(candidates(tried))
            if target is None:
                return False
            tried.append(target)
            pending[asyncio.ensure_future(attempt(target))] = target
            return True

        try:
            launch()
            while pending:
                done, _ = await asyncio.wait(
                    pending,
                    timeout=(
                        self.hedge_delay_s
                        if hedging and len(tried) < self.attempts else None
                    ),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    # The attempts in flight are slow: race the next target.
                    if launch():
                        self.registry.counter(f"{self.name}.hedges").add(1)
                    else:
                        hedging = False
                    continue
                decided = None
                for task in done:
                    verdict, value = task.result()
                    self._report(pending.pop(task), verdict)
                    if verdict in (USABLE, FATAL):
                        decided = decided or (verdict, value)
                    else:
                        last = (verdict, value)
                if decided is not None:
                    return CallOutcome(*decided, len(tried))
                if pending or len(tried) >= self.attempts:
                    continue
                await self._sleep(self.backoff(retries + 1))
                if launch():
                    retries += 1
                    self.registry.counter(f"{self.name}.retries").add(1)
            return CallOutcome(*last, len(tried))
        finally:
            for task, target in pending.items():
                task.cancel()
                self._report(target, None)

    def _choose(self, candidates: Iterable[Any]) -> Any:
        """The first candidate whose breaker lets a call through."""
        if self.breaker_for is None:
            return next(iter(candidates), None)
        now = time.monotonic()
        for target in candidates:
            if self.breaker_for(target).allow(now):
                return target
        return None

    def _report(self, target: Any, verdict: Optional[str]) -> None:
        if self.breaker_for is None:
            return
        breaker = self.breaker_for(target)
        if verdict == USABLE:
            breaker.record_success()
        elif verdict == RETRY:
            breaker.record_failure(time.monotonic())
        else:
            breaker.release()
