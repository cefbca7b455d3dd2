"""Microbenchmarks of the simulator itself (not a paper artifact).

Keeps the reproduction usable: the analytic kernel model must evaluate in
microseconds (the sweeps call it hundreds of times) and the vectorized
functional executor must stream at NumPy-reduction speed.
"""

import numpy as np
import pytest

from repro.core.cases import C1, C3
from repro.gpu.exec_model import execute_reduction
from repro.gpu.kernels import ReductionKernel
from repro.gpu.perf import estimate_kernel_time
from repro.hardware import hopper_gpu
from repro.openmp.heuristics import default_num_teams
from repro.openmp.runtime import LaunchGeometry

GPU = hopper_gpu()
KERNEL = ReductionKernel(
    name="k",
    geometry=LaunchGeometry(grid=16384, block=256, from_clause=True),
    elements=C1.elements,
    elements_per_iteration=4,
    element_type="int32",
    result_type="int32",
)
# The paper's baseline co-execution kernel (Listing 2): the default grid
# M/128 of the declared size leaves one element per thread at the
# 4 Mi-element functional cap.
BASELINE_KERNEL = ReductionKernel(
    name="baseline",
    geometry=LaunchGeometry(grid=default_num_teams(C3.elements, 128),
                            block=128, from_clause=False),
    elements=C3.elements,
    elements_per_iteration=1,
    element_type="float32",
    result_type="float32",
)


def test_kernel_model_evaluation_speed(benchmark):
    timing = benchmark(estimate_kernel_time, GPU, KERNEL)
    assert timing.total > 0
    # The whole (teams, V) sweep is 56 evaluations; each must be cheap.
    assert benchmark.stats["mean"] < 1e-3


def test_functional_executor_throughput(benchmark):
    data = np.random.default_rng(0).integers(
        -100, 100, size=1 << 20
    ).astype(np.int32)
    result = benchmark(execute_reduction, data, KERNEL)
    assert result == data.sum(dtype=np.int32)
    # Vectorized reduceat path: >100 M elements/s is comfortable.
    assert benchmark.stats["mean"] < (1 << 20) / 1e8


def test_baseline_coexec_executor_throughput(benchmark):
    n = 1 << 22
    data = np.random.default_rng(0).random(n).astype(np.float32)
    result = benchmark(execute_reduction, data, BASELINE_KERNEL)
    assert float(result) == pytest.approx(
        float(data.sum(dtype=np.float64)), rel=1e-5)
    # Same bound as above.  Every thread owns one element here, so any
    # per-thread index work costs as much as the reduction itself.
    assert benchmark.stats["mean"] < n / 1e8
