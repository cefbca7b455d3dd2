"""The process-global fault injector behind every injection point.

Hot paths call :func:`fire` with their point name; with no plan active
that is a single global read returning ``None`` (the zero-overhead
contract the disabled-overhead test enforces).  With a plan active, a
firing probe increments the ``faults.injected`` telemetry counter
(labelled by point and mode — the global metrics registry is live even
when span recording is off, so every injected fault is countable from
``/metrics``), records a ``fault.inject`` span when telemetry is on, and
returns the :class:`~repro.faults.plan.FaultDecision` for the call site
to act on.

Activation mirrors telemetry: the ``REPRO_FAULTS`` environment variable
(inherited by forked shards and spawned pool workers), or
:attr:`repro.config.ReproConfig.faults` on the machine a driver builds,
or :func:`activate` directly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Union

from ..obs.flight import flight
from ..telemetry.state import metrics, span
from .plan import FaultDecision, FaultPlan

__all__ = [
    "FAULTS_ENV",
    "activate",
    "active_plan",
    "deactivate",
    "enabled",
    "fire",
    "injected",
]

#: Environment variable carrying the fault spec.
FAULTS_ENV = "REPRO_FAULTS"

_PLAN: Optional[FaultPlan] = None

_env_spec = os.environ.get(FAULTS_ENV)
if _env_spec and _env_spec.strip():
    # Fail loudly on a malformed spec: silently ignoring a typo'd
    # REPRO_FAULTS would make a chaos run report a spotless pass.
    _PLAN = FaultPlan.parse(_env_spec)
del _env_spec


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan, or ``None``."""
    return _PLAN


def enabled() -> bool:
    """Whether any fault plan is active in this process."""
    return _PLAN is not None


def activate(
    spec_or_plan: Union[str, FaultPlan], set_env: bool = True
) -> FaultPlan:
    """Install a fault plan process-wide; returns it.

    Re-activating the identical spec is a no-op (probe counters keep
    running), so repeated ``Machine(config)`` constructions do not
    rewind a live chaos sequence.  ``set_env`` exports the spec so
    forked/spawned worker processes inherit the same plan.
    """
    global _PLAN
    if isinstance(spec_or_plan, FaultPlan):
        plan = spec_or_plan
    else:
        if _PLAN is not None and _PLAN.spec == spec_or_plan.strip():
            return _PLAN
        plan = FaultPlan.parse(spec_or_plan)
    _PLAN = plan
    if set_env and plan.spec:
        os.environ[FAULTS_ENV] = plan.spec
    return plan


def deactivate(set_env: bool = True) -> None:
    """Remove the active plan (injection points return to no-ops)."""
    global _PLAN
    _PLAN = None
    if set_env:
        os.environ.pop(FAULTS_ENV, None)


@contextmanager
def injected(spec_or_plan: Union[str, FaultPlan]) -> Iterator[FaultPlan]:
    """Scope a plan to a ``with`` block (used by tests and the harness)."""
    previous = _PLAN
    plan = activate(spec_or_plan)
    try:
        yield plan
    finally:
        deactivate()
        if previous is not None:
            activate(previous)


def fire(point: str) -> Optional[FaultDecision]:
    """Probe *point* against the active plan; ``None`` when nothing fires."""
    plan = _PLAN
    if plan is None:
        return None
    decision = plan.decide(point)
    if decision is None:
        return None
    metrics().counter(
        "faults.injected", point=point, mode=decision.mode
    ).add(1)
    flight().record("fault", "inject", point=point, mode=decision.mode)
    with span(
        "fault.inject", category="faults", point=point, mode=decision.mode
    ):
        return decision
