"""Distributed trace context: minting, propagation, async-safe spans.

A :class:`TraceContext` names one request's causal tree: a 128-bit trace
id shared by every span the request touches (in any process), the span
id of the immediate parent, and a sampling bit.  It travels on the
``x-repro-trace`` HTTP header (``<trace_id>;<parent_id>;<sampled>``) and
inside :attr:`~repro.service.admission.PendingRequest.extra` between the
service stages.

Sampling is **deterministic from the request fingerprint**: the decision
hashes the cache key, not a random draw, so repeated runs of the same
workload trace the *same* requests — a trace captured in CI reproduces
locally.

The spans themselves come from the telemetry recorder: the asyncio side
of the service calls :meth:`repro.telemetry.SpanRecorder.open` /
:meth:`~repro.telemetry.SpanRecorder.close` with the parent this context
names, because the recorder's stack-based spans would interleave wrongly
across ``await`` boundaries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "mint_context",
    "sample_decision",
]

#: HTTP header carrying the propagated context.
TRACE_HEADER = "x-repro-trace"

#: Sampling-hash denominator: 53 bits of the fingerprint digest map to
#: [0, 1) exactly in a float.
_SAMPLE_BITS = 53
_SAMPLE_DENOM = float(1 << _SAMPLE_BITS)


@dataclass(frozen=True)
class TraceContext:
    """One request's propagated identity: trace id, parent span, sampling."""

    trace_id: str
    parent_id: Optional[str] = None
    sampled: bool = True

    def to_header(self) -> str:
        """Serialize for the ``x-repro-trace`` header."""
        return f"{self.trace_id};{self.parent_id or '-'};{int(self.sampled)}"

    @classmethod
    def from_header(cls, text: Optional[str]) -> Optional["TraceContext"]:
        """Parse a header value; ``None`` for missing or malformed input."""
        if not text:
            return None
        parts = text.strip().split(";")
        if len(parts) != 3:
            return None
        trace_id, parent_id, sampled = parts
        if not trace_id or not _is_hex(trace_id):
            return None
        if sampled not in ("0", "1"):
            return None
        return cls(
            trace_id=trace_id,
            parent_id=None if parent_id in ("", "-") else parent_id,
            sampled=sampled == "1",
        )

    def child(self, parent_id: str) -> "TraceContext":
        """The same trace, re-rooted under *parent_id*."""
        return replace(self, parent_id=parent_id)


def _is_hex(text: str) -> bool:
    try:
        int(text, 16)
    except ValueError:
        return False
    return True


def sample_decision(fingerprint: str, rate: float) -> bool:
    """Deterministic sampling: hash the fingerprint against *rate*.

    The draw is a pure function of the fingerprint, so every process —
    and every run — agrees on which requests are traced.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.sha256(fingerprint.encode("utf-8")).digest()
    draw = int.from_bytes(digest[:8], "big") >> (64 - _SAMPLE_BITS)
    return draw / _SAMPLE_DENOM < rate


def mint_context(
    fingerprint: str, request_id: str, rate: float
) -> Optional[TraceContext]:
    """Mint a context at service admission, or ``None`` when unsampled.

    The trace id is 128 bits of ``sha256(fingerprint:request_id)`` — the
    *request id* differentiates coalesced duplicates (each gets its own
    trace) while the *fingerprint* alone drives the sampling decision,
    keeping the traced set stable across runs.
    """
    if not sample_decision(fingerprint, rate):
        return None
    digest = hashlib.sha256(
        f"{fingerprint}:{request_id}".encode("utf-8")
    ).hexdigest()
    return TraceContext(trace_id=digest[:32], sampled=True)
