"""Deterministic fault injection and the resilience layer built on it.

``plan``/``injector`` are the injection side: a seeded, rule-based
:class:`FaultPlan` activated via ``REPRO_FAULTS`` (or
``ReproConfig.faults``) that fires at named points in the hot paths and
is a no-op when unset.  ``breaker``, ``policy`` and ``supervisor`` are
the resilience side: the circuit breaker, the one retry/hedge loop the
service scheduler and the cluster coordinator share, and the supervised
worker pool used by the sweep executor.

``degrade`` (analytic fallback) and ``chaos`` (the ``repro chaos``
harness) are deliberately *not* re-exported here: they sit above the
service layer and importing them from the package root would create an
import cycle through ``repro.service``.
"""

from .breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from .injector import (
    FAULTS_ENV,
    activate,
    active_plan,
    deactivate,
    enabled,
    fire,
    injected,
)
from .plan import FaultDecision, FaultPlan, FaultRule, SpecError
from .supervisor import SupervisedWorkerPool, failure_record, record_checksum

__all__ = [
    "CircuitBreaker",
    "FAULTS_ENV",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "SpecError",
    "SupervisedWorkerPool",
    "activate",
    "active_plan",
    "deactivate",
    "enabled",
    "failure_record",
    "fire",
    "injected",
    "record_checksum",
]
