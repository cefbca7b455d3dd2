"""One layer of functional values per machine.

A :class:`~repro.core.machine.Machine` builds one :class:`ValueLayer`, at
``machine.values``, and both consumers of functional values go through
it: pass 4 of :func:`repro.sim.batch.evaluate_gpu_slab` and
:func:`repro.core.coexec._functional_coexec`.  It holds three things,
each keyed on exactly what it reads:

* **values** — one dict of scalars for both consumers.  The slab keys a
  value on :func:`repro.sim.batch._value_key`, co-execution on
  ``(T, R, n, n_d, device, cores)``; the two never collide, because a
  slab key holds an ``int`` block or nothing where a co-execution key
  holds its ``device`` tuple or ``None``.
* **host references** — one per (identifier, T, R, ``n``).  On one
  machine T and ``n`` fix the workload and the ``dot`` pair, both
  read-only, so the reference is keyed on those values.
* **thread levels** — the executor's first half
  (:func:`repro.gpu.exec_model._thread_level`), keyed on the identifier,
  T, R and :func:`~repro.gpu.exec_model._thread_starts_key`.  A level is
  kept only when its partials own at most :data:`LEVEL_CAP_BYTES`, and
  the least recently used go once the kept ones own more than
  :data:`LEVEL_BUDGET_BYTES`.  Kept partials are read-only.  A level
  whose partials are the workload itself (one element per thread, T ==
  R) costs nothing to recompute and is not kept.

Reuse is exact: a hit hands back what the same NumPy calls on the same
arrays returned, so no result moves by a bit.  The one verification rule
lives in :meth:`ValueLayer.verify`: a call that asks for verification
compares every value it returns, hit or miss, against the memoized
reference, and a consumer stores a value it computed only after that
value has passed the verification its call asked for.

The service's dispatch thread, job runs and HTTP handlers share one
machine, so every mutation, and every count, happens under one lock.
Computing a value, a reference or a level happens outside it: two
threads that miss together compute the same bits, and the first to
store wins.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

import numpy as np

from ..core.verify import check_result, reference_result

__all__ = ["LEVEL_BUDGET_BYTES", "LEVEL_CAP_BYTES", "ValueLayer"]

#: A thread level is kept only when its partials own at most this many
#: bytes.  At the default 4 Mi cap that keeps every level with thread
#: chunks of at least 16 elements in a 4-byte R, or 32 in an 8-byte R.
LEVEL_CAP_BYTES = 1 << 20
#: The kept levels of one machine own at most this many bytes.  Peak RSS
#: grows by about this much (docs/PERFORMANCE.md has the readings).
LEVEL_BUDGET_BYTES = 4 << 20

_COUNTS = ("value_hits", "value_misses", "reference_hits",
           "reference_misses", "level_hits", "level_misses",
           "level_evictions")


class ValueLayer:
    """A machine's functional values, host references and thread levels."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[tuple, Any] = {}
        self._references: Dict[tuple, Any] = {}
        # key -> (level, bytes), least recently used first.
        self._levels: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._level_bytes = 0
        self._counts = dict.fromkeys(_COUNTS, 0)

    # -- values -----------------------------------------------------------
    def value(self, key: tuple) -> Optional[Any]:
        """The stored value for *key*, or ``None``."""
        with self._lock:
            value = self._values.get(key)
            self._counts["value_misses" if value is None
                         else "value_hits"] += 1
        return value

    def store(self, key: tuple, value: Any) -> None:
        """Keep a computed value.  The caller has already verified it if
        its call asked for verification."""
        with self._lock:
            self._values.setdefault(key, value)

    # -- references and verification --------------------------------------
    def reference(self, machine, case, identifier: str = "+") -> Any:
        """The host reference over *machine*'s workload for *case*."""
        n = machine.functional_elements(case)
        key = (identifier, case.element_type.name, case.result_type.name, n)
        with self._lock:
            expected = self._references.get(key)
            self._counts["reference_misses" if expected is None
                         else "reference_hits"] += 1
        if expected is None:
            second = (machine.workload_pair(case) if identifier == "dot"
                      else None)
            expected = reference_result(machine.workload(case),
                                        case.result_type, identifier, second)
            with self._lock:
                expected = self._references.setdefault(key, expected)
        return expected

    def verify(self, machine, case, identifier: str, actual: Any) -> None:
        """Compare *actual* with the reference; raises
        :class:`~repro.errors.VerificationError` on a mismatch."""
        check_result(actual, self.reference(machine, case, identifier),
                     case.result_type, identifier,
                     machine.functional_elements(case))

    # -- thread levels ------------------------------------------------------
    def level(self, key: tuple) -> Optional[tuple]:
        """A kept thread level, or ``None``; a hit becomes the most
        recently used."""
        with self._lock:
            kept = self._levels.get(key)
            if kept is None:
                self._counts["level_misses"] += 1
                return None
            self._levels.move_to_end(key)
            self._counts["level_hits"] += 1
        return kept[0]

    def keep_level(self, key: tuple, level: tuple, data: np.ndarray) -> None:
        """Keep a thread level computed from *data*, if it is small and
        does not alias *data*; evicts the least recently used levels
        beyond the budget."""
        partials = level[1]
        size = partials.nbytes
        if size > LEVEL_CAP_BYTES or np.may_share_memory(partials, data):
            return
        if isinstance(partials, np.ndarray):
            partials.setflags(write=False)
        with self._lock:
            if key in self._levels:
                return
            self._levels[key] = (level, size)
            self._level_bytes += size
            while self._level_bytes > LEVEL_BUDGET_BYTES:
                _key, (_level, freed) = self._levels.popitem(last=False)
                self._level_bytes -= freed
                self._counts["level_evictions"] += 1

    # -- counts ---------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Hits, misses and evictions, plus the kept levels and their
        bytes (published as ``sim.values.*`` gauges)."""
        with self._lock:
            counts = dict(self._counts)
            counts["levels"] = len(self._levels)
            counts["level_bytes"] = self._level_bytes
            counts["values"] = len(self._values)
            counts["references"] = len(self._references)
        return counts
