"""Independent computation paths and tolerances for differential checks.

Each oracle computes "the answer" for a reduction case along a path that
shares as little code as possible with the others:

* **device** — the functional GPU executor with the case's real launch
  geometry (:func:`repro.gpu.exec_model.execute_reduction`);
* **host** — the CPU parallel-for lowering
  (:func:`repro.cpu.exec_model.execute_host_reduction`);
* **serial** — :func:`serial_ground_truth`: exact modular arithmetic for
  integers (Python big ints, wrapped once at the end), float64
  compensated summation for floats — no NumPy reduction tree involved;
* **compensated references** — :func:`kahan_sum` / :func:`pairwise_sum`
  / :func:`naive_sum`, used both as oracle inputs and by the property
  suite to check the textbook error ordering;
* **scalar pricing** — :func:`scalar_gpu_records`: ``gpu_point``
  records built point by point through the Listing-6 pipeline
  (:func:`~repro.core.timing.measure_gpu_reduction`), the reference
  that the sweep executor's batch-vectorized slab must match byte for
  byte.

Tolerances are dtype-aware (:class:`OracleTolerances`): integer paths
must agree *exactly* (modular addition is associative, so any grouping
of wrapped partial sums equals the wrapped exact sum), while floating
paths get the condition-aware worst-case bound for reordered summation,

    |S_a - S_b| <= 2 * n * eps_R * sum(|x_i|),

which stays sound even for the fuzzer's ``ill_conditioned`` and
``extremes`` workloads where the paper's own ``|sum|``-scaled rule
(:func:`repro.core.verify.float_tolerance`, built for well-conditioned
benchmarking inputs) would flag legitimate rounding as divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.timing import measure_gpu_reduction
from ..dtypes import ScalarType, scalar_type

__all__ = [
    "GROUPING_EXACT_IDENTIFIERS",
    "OracleTolerances",
    "kahan_sum",
    "naive_sum",
    "pairwise_sum",
    "scalar_gpu_records",
    "serial_ground_truth",
    "tolerances_for",
]


def naive_sum(data, dtype=np.float64) -> float:
    """Left-to-right recursive summation in *dtype* (worst-case error)."""
    t = np.dtype(dtype).type
    acc = t(0)
    for x in data:
        acc = t(acc + t(x))
    return float(acc)


def kahan_sum(data, dtype=np.float64) -> float:
    """Kahan compensated summation in *dtype* (error ~ 2*eps, size-free)."""
    t = np.dtype(dtype).type
    acc = t(0)
    comp = t(0)
    for x in data:
        y = t(t(x) - comp)
        total = t(acc + y)
        comp = t(t(total - acc) - y)
        acc = total
    return float(acc)


def pairwise_sum(data, dtype=np.float64) -> float:
    """Recursive pairwise summation in *dtype* (error ~ eps * log2 n)."""
    t = np.dtype(dtype).type

    def rec(lo: int, hi: int):
        if hi == lo:
            return t(0)
        if hi - lo == 1:
            return t(data[lo])
        mid = (lo + hi) // 2
        return t(rec(lo, mid) + rec(mid, hi))

    return float(rec(0, len(data)))


def scalar_gpu_records(machine, payloads: Sequence[tuple]) -> List[dict]:
    """Price ``gpu_point`` payloads one at a time through Listing 6.

    Payloads are the sweep executor's ``(case, config, trials, verify)``
    tuples, with non-sum identifiers in a fifth element.  Each record has
    the slab's ``bandwidth_gbs``, ``elapsed_seconds`` and ``value``.
    """
    records = []
    for payload in payloads:
        case, config, trials, verify = payload[:4]
        op = payload[4] if len(payload) > 4 else "+"
        m = measure_gpu_reduction(machine, case, config, trials=trials,
                                  verify=verify, op=op)
        records.append({
            "bandwidth_gbs": m.bandwidth_gbs,
            "elapsed_seconds": m.elapsed_seconds,
            "value": m.value.item(),
        })
    return records


def _wrap(value: int, bits: int) -> int:
    """Two's-complement wrap of an exact Python int into *bits* bits."""
    return ((int(value) + (1 << (bits - 1))) % (1 << bits)) - (1 << (bits - 1))


def serial_ground_truth(data: np.ndarray, result_type, identifier: str = "+",
                        second=None):
    """The independent serial reference, in the accumulator type R.

    ``+`` — integers: the exact sum in Python arbitrary precision,
    wrapped once into R's two's complement (by associativity this equals
    *any* grouping of wrapped partial sums, so every correct executor
    must match it bit for bit); floats: float64 Kahan summation (error
    far below any float32/float64 grouping tolerance).

    ``min`` / ``max`` — a pure-Python comparison scan (no NumPy ufunc
    involved); grouping-exact for every dtype, so executors must match
    bit for bit.

    ``argmax`` — a pure-Python first-index-of-maximum scan (lowest index
    wins on ties), the OpenMP user-defined-reduction tie-break contract.

    ``dot`` — integers: the exact big-int sum of exact products, wrapped
    once (modular arithmetic makes per-product wrapping in R equivalent);
    floats: Kahan summation over exactly-computed float64 products.
    """
    rtype = scalar_type(result_type)
    if identifier == "argmax":
        if data.size == 0:
            return rtype.numpy.type(-1)
        lst = data.tolist()
        best_i = 0
        best = lst[0]
        for i, x in enumerate(lst):
            if x > best:
                best, best_i = x, i
        return rtype.numpy.type(best_i)
    if identifier in ("min", "max"):
        if data.size == 0:
            if rtype.is_integer:
                info = np.iinfo(rtype.numpy)
                return rtype.numpy.type(
                    info.max if identifier == "min" else info.min
                )
            return rtype.numpy.type(
                np.inf if identifier == "min" else -np.inf
            )
        best = data.tolist()[0]
        for x in data.tolist()[1:]:
            if (x < best) if identifier == "min" else (x > best):
                best = x
        return rtype.numpy.type(best)
    if identifier == "dot":
        if second is None:
            raise ValueError("dot ground truth requires the second operand")
        if rtype.is_integer:
            exact = sum(
                int(x) * int(y)
                for x, y in zip(data.tolist(), second.tolist())
            )
            return rtype.numpy.type(_wrap(exact, rtype.bits))
        if data.size == 0:
            return rtype.numpy.type(0)
        products = (data.astype(np.float64, copy=False)
                    * second.astype(np.float64, copy=False))
        return rtype.numpy.type(kahan_sum(products, np.float64))
    if rtype.is_integer:
        exact = int(sum(int(x) for x in data.tolist())) if data.size else 0
        return rtype.numpy.type(_wrap(exact, rtype.bits))
    if data.size == 0:
        return rtype.numpy.type(0)
    return rtype.numpy.type(
        kahan_sum(data.astype(np.float64, copy=False), np.float64)
    )


@dataclass(frozen=True)
class OracleTolerances:
    """Dtype- and identifier-aware agreement rules for one case.

    ``abs_sum`` is the conditioning scale of the input in float64 —
    ``sum(|x_i|)`` for single-array reductions, ``sum(|x_i * y_i|)`` for
    ``dot``.  Integer cases ignore it (agreement is exact), as do
    grouping-exact identifiers (``min``/``max``/``argmax``: comparisons
    do not round, so every grouping of a float reduction returns the
    same bits — ``exact`` is set and paths must match exactly).
    """

    result_type: ScalarType
    n_elements: int
    abs_sum: float = 0.0
    exact: bool = False

    @property
    def absolute_bound(self) -> float:
        """Largest legitimate difference between two float groupings."""
        if self.result_type.is_integer or self.exact:
            return 0.0
        eps = float(np.finfo(self.result_type.numpy).eps)
        n = max(self.n_elements, 1)
        return 2.0 * n * eps * max(self.abs_sum, 1.0)

    def agree(self, a, b) -> bool:
        """Whether two path results are equal under this case's rules."""
        if self.result_type.is_integer:
            return int(a) == int(b)
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return math.isnan(fa) and math.isnan(fb)
        if self.exact or math.isinf(fa) or math.isinf(fb):
            return fa == fb
        return abs(fa - fb) <= self.absolute_bound

    def describe(self) -> str:
        if self.result_type.is_integer:
            return f"{self.result_type.name}: exact"
        if self.exact:
            return f"{self.result_type.name}: exact (grouping-insensitive)"
        return (
            f"{self.result_type.name}: |a-b| <= {self.absolute_bound:.3g} "
            f"(n={self.n_elements}, sum|x|={self.abs_sum:.3g})"
        )


#: Identifiers whose float result is independent of grouping (comparison
#: selections never round), so cross-path agreement must be exact.
GROUPING_EXACT_IDENTIFIERS = ("min", "max", "argmax")


def tolerances_for(data: np.ndarray, result_type, identifier: str = "+",
                   second=None) -> OracleTolerances:
    """Build the tolerance rule for a concrete input (pair) and identifier."""
    rtype = scalar_type(result_type)
    exact = identifier in GROUPING_EXACT_IDENTIFIERS
    abs_sum = 0.0
    if not rtype.is_integer and not exact and data.size:
        if identifier == "dot":
            if second is None:
                raise ValueError(
                    "dot tolerances require the second operand"
                )
            abs_sum = float(
                np.abs(
                    data.astype(np.float64, copy=False)
                    * second.astype(np.float64, copy=False)
                ).sum()
            )
        else:
            abs_sum = float(
                np.abs(data.astype(np.float64, copy=False)).sum()
            )
    return OracleTolerances(
        result_type=rtype, n_elements=int(data.size), abs_sum=abs_sum,
        exact=exact,
    )
