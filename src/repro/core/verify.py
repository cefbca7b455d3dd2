"""Result verification — "The GPU results are verified using the CPU
results" (paper §III.B).

Integer reductions must match the host reference exactly (modular addition
is associative, so any grouping yields the same wrapped sum).  Floating
reductions legitimately differ by rounding when the grouping differs; the
tolerance scales with sqrt(M) per the standard error model for recursive
summation.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..dtypes import scalar_type
from ..errors import VerificationError
from ..openmp.reduction_ops import get_reduction_op

__all__ = ["check_result", "float_tolerance", "reference_result",
           "verify_result"]


def reference_result(data: np.ndarray, result_type, identifier: str = "+",
                     second: Optional[np.ndarray] = None):
    """Host-side reference: one whole-array reduction in R.

    ``argmax`` references ``np.argmax`` (first index of the maximum);
    ``dot`` widens products to R and sums them in one pass.
    """
    rtype = scalar_type(result_type)
    if identifier == "argmax":
        return rtype.numpy.type(int(np.argmax(data)) if data.size else -1)
    if identifier == "dot":
        if second is None:
            raise ValueError("dot verification requires the second operand")
        products = (data.astype(rtype.numpy, copy=False)
                    * second.astype(rtype.numpy, copy=False))
        return products.sum(dtype=rtype.numpy)
    op = get_reduction_op(identifier, rtype)
    return op.reduce_array(data, rtype.numpy)


def float_tolerance(result_type, n_elements: int) -> float:
    """Relative tolerance for an n-element float reduction.

    Recursive-summation error grows ~ eps * sqrt(n) for random data; the
    factor 32 covers the different grouping depths of device vs host.
    """
    eps = float(np.finfo(scalar_type(result_type).numpy).eps)
    return max(32.0 * eps * math.sqrt(max(n_elements, 1)), 4.0 * eps)


#: Identifiers whose result depends on accumulation grouping for floats.
#: min/max/argmax are grouping-exact even in floating point (comparisons
#: do not round), so they verify with equality like the integer path.
_GROUPING_SENSITIVE = ("+", "-", "*", "dot")


def verify_result(actual, data: np.ndarray, result_type, identifier: str = "+",
                  second: Optional[np.ndarray] = None):
    """Check *actual* against the host reference; returns the reference.

    The reference (:func:`reference_result`), then the comparison
    (:func:`check_result`).

    Raises
    ------
    VerificationError
        On an exact mismatch (integers and grouping-exact identifiers) or
        an out-of-tolerance result (grouping-sensitive float reductions).
    """
    rtype = scalar_type(result_type)
    expected = reference_result(data, rtype, identifier, second)
    check_result(actual, expected, rtype, identifier, data.size)
    return expected


def check_result(actual, expected, result_type, identifier: str,
                 n_elements: int) -> None:
    """Compare *actual* with the reference *expected* of an
    *n_elements*-element reduction.

    Raises
    ------
    VerificationError
        On an exact mismatch (integers and grouping-exact identifiers) or
        an out-of-tolerance result (grouping-sensitive float reductions).
    """
    rtype = scalar_type(result_type)
    if not rtype.is_integer and identifier not in _GROUPING_SENSITIVE:
        # Exact float comparison via bit-for-bit equality (NaN-safe: a
        # NaN result never equals the reference and fails).
        if not (float(actual) == float(expected)):
            raise VerificationError(
                f"{identifier} reduction mismatch: device={float(actual)!r} "
                f"host={float(expected)!r}",
                expected=expected,
                actual=actual,
            )
        return
    if rtype.is_integer:
        if int(actual) != int(expected):
            raise VerificationError(
                f"integer reduction mismatch: device={int(actual)} "
                f"host={int(expected)}",
                expected=expected,
                actual=actual,
            )
        return
    rtol = float_tolerance(rtype, n_elements)
    scale = max(abs(float(expected)), 1.0)
    # Negated comparison so NaN/inf results FAIL verification (a plain
    # `diff > tol` is False for NaN and would silently pass).
    if not (abs(float(actual) - float(expected)) <= rtol * scale):
        raise VerificationError(
            f"float reduction out of tolerance: device={float(actual)!r} "
            f"host={float(expected)!r} rtol={rtol:g}",
            expected=expected,
            actual=actual,
        )
