"""Tests for the functional host executor."""

import numpy as np
import pytest

from repro.cpu.exec_model import execute_host_reduction
from repro.dtypes import FLOAT32, INT32, INT64, SCALAR_TYPES
from repro.errors import UnsupportedReductionError
from repro.gpu.exec_model import execute_reduction
from repro.gpu.kernels import ReductionKernel
from repro.hardware import grace_cpu
from repro.openmp.reduction_ops import (
    ALL_REDUCTION_IDENTIFIERS, required_arrays, validate_reduction,
)
from repro.openmp.runtime import LaunchGeometry


def _accepted(identifier, result_type):
    try:
        validate_reduction(identifier, result_type)
    except UnsupportedReductionError:
        return False
    return True


# Every (identifier, result type) pair the reduction registry accepts.
ACCEPTED = [(ident, rt) for ident in ALL_REDUCTION_IDENTIFIERS
            for rt in SCALAR_TYPES if _accepted(ident, rt)]


@pytest.fixture(scope="module")
def cpu():
    return grace_cpu()


class TestHostReduction:
    def test_matches_numpy(self, cpu, rng):
        data = rng.integers(-100, 100, size=123_457).astype(np.int32)
        assert execute_host_reduction(data, cpu, INT32) == data.sum(dtype=np.int32)

    def test_wraps_in_result_type(self, cpu):
        data = np.full(4, 2**30, dtype=np.int32)
        assert execute_host_reduction(data, cpu, INT32) == np.int32(0)

    def test_widening(self, cpu):
        data = np.full(1 << 20, 127, dtype=np.int8)
        out = execute_host_reduction(data, cpu, INT64)
        assert out == 127 * (1 << 20)

    def test_float_grouping_tolerance(self, cpu, rng):
        data = rng.random(1 << 16).astype(np.float32)
        out = execute_host_reduction(data, cpu, FLOAT32)
        assert float(out) == pytest.approx(float(data.sum(dtype=np.float64)),
                                           rel=1e-5)

    def test_empty(self, cpu):
        assert execute_host_reduction(np.empty(0, dtype=np.int32), cpu, INT32) == 0

    def test_fewer_elements_than_cores(self, cpu):
        data = np.arange(5, dtype=np.int32)
        assert execute_host_reduction(data, cpu, INT32) == 10

    def test_2d_rejected(self, cpu):
        with pytest.raises(ValueError):
            execute_host_reduction(np.ones((2, 2), dtype=np.int32), cpu, INT32)

    def test_result_dtype(self, cpu):
        data = np.ones(8, dtype=np.int8)
        out = execute_host_reduction(data, cpu, INT64)
        assert out.dtype == np.dtype("int64")


class TestEmptyInputMatchesDevice:
    @pytest.mark.parametrize("identifier,result_type", ACCEPTED)
    def test_host_and_device_agree_byte_for_byte(self, cpu, identifier,
                                                 result_type):
        empty = np.empty(0, dtype=SCALAR_TYPES[result_type].numpy)
        second = empty if identifier == "dot" else None
        kernel = ReductionKernel(
            name="k",
            geometry=LaunchGeometry(grid=4, block=32, from_clause=True),
            elements=1024,
            elements_per_iteration=1,
            element_type=result_type,
            result_type=result_type,
            identifier=identifier,
            arrays=required_arrays(identifier),
        )
        host = execute_host_reduction(empty, cpu, result_type, identifier,
                                      second)
        device = execute_reduction(empty, kernel, second)
        assert host.dtype == device.dtype
        assert host.tobytes() == device.tobytes()

    def test_unknown_identifier_raises(self, cpu):
        with pytest.raises(UnsupportedReductionError):
            execute_host_reduction(np.empty(0, dtype=np.int32), cpu, INT32,
                                   "nand")
