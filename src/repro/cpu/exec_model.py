"""Functional host reduction.

Mirrors the OpenMP host lowering: the iteration space is split into one
contiguous static chunk per core (``#pragma omp for``), each chunk is
accumulated privately in the result type, and the partials are combined at
the region's implicit barrier.  Vectorized with ``reduceat`` exactly like
the device executor.

Beyond ``+`` the host implements the same identifier families as the
device executor (:mod:`repro.gpu.exec_model`): the implicit ufunc set,
``argmax`` (first index of the global maximum — geometry independent, so
it is computed directly), and two-array ``dot`` (products widened to R,
then the ``+`` chunking).  An empty input reduces to what the device
executor returns for it: the identifier's identity, ``-1`` for argmax and
``0`` for dot.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..dtypes import scalar_type
from ..errors import UnsupportedReductionError
from ..hardware.spec import CpuSpec
from ..openmp.reduction_ops import get_reduction_op
from ..telemetry.state import span as tele_span

__all__ = ["execute_host_reduction"]

_UFUNCS = {
    "+": np.add,
    "-": np.add,  # OpenMP 5.1: '-' combines with +
    "*": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
}

_LOGICAL = {"&&": np.minimum, "||": np.maximum}


def execute_host_reduction(
    data: np.ndarray, cpu: CpuSpec, result_type,
    identifier: str = "+", second: Optional[np.ndarray] = None,
) -> np.generic:
    """Reduce *data* the way the host's parallel-for would; returns R.

    Integer accumulation wraps in R; float accumulation follows the
    per-core chunked grouping.  ``dot`` takes its second operand via
    *second*.
    """
    if data.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {data.shape}")
    with tele_span("execute_host_reduction", category="cpu",
                   elements=int(data.size), cores=cpu.cores):
        result_type = scalar_type(result_type)
        rtype = result_type.numpy
        if identifier == "dot":
            if second is None:
                raise UnsupportedReductionError(
                    "reduction-identifier 'dot' requires a second input array"
                )
            if second.shape != data.shape or second.dtype != data.dtype:
                raise ValueError(
                    f"dot operands must match: {data.dtype}{data.shape} vs "
                    f"{second.dtype}{second.shape}"
                )
        if data.size == 0:
            if identifier == "argmax":
                return rtype.type(-1)
            if identifier == "dot":
                return rtype.type(0)
            op = get_reduction_op(identifier, result_type)
            return rtype.type(op.identity_for(result_type))
        if identifier == "argmax":
            return rtype.type(int(np.argmax(data)))
        if identifier == "dot":
            ufunc = np.add
            values = (data.astype(rtype, copy=False)
                      * second.astype(rtype, copy=False))
        elif identifier in _LOGICAL:
            ufunc = _LOGICAL[identifier]
            values = (data != 0).astype(rtype)
        elif identifier in _UFUNCS:
            ufunc = _UFUNCS[identifier]
            values = data
        else:
            raise UnsupportedReductionError(
                f"no host lowering for identifier {identifier!r}"
            )
        chunk = -(-values.size // cpu.cores)
        starts = np.arange(0, values.size, chunk, dtype=np.int64)
        partials = ufunc.reduceat(values, starts, dtype=rtype)
        return rtype.type(ufunc.reduce(partials, dtype=rtype))
