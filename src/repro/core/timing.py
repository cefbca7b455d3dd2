"""The Listing 6 measurement harness.

Each of the N (= 200) timed trials re-initializes ``sum``, pushes it to the
device (``target update to``), runs the kernel, and copies the result back
(``target update from``); the input array is device-resident throughout —
"the host-to-device transfer of input numbers is not included in the
timing measurement" (§III.B).  The metric is

``bandwidth = 1e-9 * M * sizeof(T) * N / elapsed_time``  (GB/s).

The functional layer executes the reduction once per measurement on the
size-capped workload and verifies it against the host reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Optional

import numpy as np

from ..compiler.cache import cached_compile
from ..errors import MeasurementError
from ..gpu.exec_model import execute_reduction
from ..gpu.kernels import ReductionKernel
from ..gpu.perf import KernelTiming
from ..openmp.data_env import DeviceDataEnvironment
from ..openmp.reduction_ops import required_arrays
from ..util.units import gb_per_s
from .baseline import baseline_program
from .cases import Case
from .machine import Machine
from .optimized import KernelConfig, optimized_program
from .verify import verify_result

__all__ = ["TRIALS", "Measurement", "measure_gpu_reduction"]

#: The paper's trial count (N = 200).
TRIALS = 200


@dataclass(frozen=True)
class Measurement:
    """One Listing-6 measurement."""

    case: Case
    config: Optional[KernelConfig]
    trials: int
    elapsed_seconds: float
    bandwidth_gbs: float
    kernel: ReductionKernel
    kernel_timing: KernelTiming
    value: np.generic
    peak_bandwidth_gbs: float

    @property
    def is_baseline(self) -> bool:
        return self.config is None

    @property
    def efficiency(self) -> float:
        """The paper's metric: measured bandwidth / peak GPU bandwidth."""
        return self.bandwidth_gbs / self.peak_bandwidth_gbs

    def label(self) -> str:
        cfg = "baseline" if self.is_baseline else self.config.label()
        return f"{self.case.name} [{cfg}]: {self.bandwidth_gbs:.0f} GB/s"


def measure_gpu_reduction(
    machine: Machine,
    case: Case,
    config: Optional[KernelConfig] = None,
    trials: int = TRIALS,
    verify: Optional[bool] = None,
    op: str = "+",
) -> Measurement:
    """Measure *case* on the GPU with Listing 6's loop.

    ``config=None`` measures the baseline (Listing 2, runtime heuristics);
    otherwise the optimized Listing 5 at the given parameter point.
    ``op`` selects the reduction identifier; the default ``"+"`` is the
    paper's sum, and alternative identifiers (``min``/``max``/``argmax``/
    ``dot``) rewrite the listing's reduction clause before compiling.

    Every call compiles (through the process-wide compile cache),
    launches, prices and executes: nothing is replayed, whatever the
    telemetry switch says, so this stays the scalar oracle that the slab
    (:mod:`repro.sim.batch`) is checked against.
    """
    if trials <= 0:
        raise MeasurementError(f"trials must be positive, got {trials}")

    do_verify = machine.config.strict_verify if verify is None else verify

    if config is None:
        program = baseline_program(case)
        env = None
    else:
        program = optimized_program(case, config)
        env = config.env()
    if op != "+":
        # Rewrite the listing's clause for the alternative identifier.
        # The program is a frozen value object, so the compile cache keys
        # the rewritten variant independently of the sum program.
        program = dc_replace(
            program,
            pragma=program.pragma.replace(
                "reduction(+:sum)", f"reduction({op}:sum)"
            ),
            name=f"{program.name}_{op}",
            arrays=required_arrays(op),
        )
    compiled = cached_compile(program)
    kernel = compiled.launch(machine.runtime, env)

    # Device data environment (non-UM §III mode): the input array is
    # mapped once, *outside* the timed region ("the host-to-device
    # transfer of input numbers is not included in the timing
    # measurement"); only the scalar `sum` moves per trial via the
    # `target update to/from` pair of Listing 6.
    env = DeviceDataEnvironment(
        machine.link, machine.gpu.memory.capacity_bytes
    )
    env.map_to("in", case.input_bytes)          # untimed setup transfer
    if kernel.arrays > 1:
        env.map_to("in2", case.input_bytes)     # dot's second operand
    env.map_alloc("sum", case.result_type.size)

    timing = machine.run_kernel(kernel)
    scalar_motion = env.update_to("sum") + env.update_from("sum")
    trial_seconds = scalar_motion + timing.total
    elapsed = trials * trial_seconds

    data = machine.workload(case)
    second = machine.workload_pair(case) if op == "dot" else None
    value = execute_reduction(data, kernel, second)
    if do_verify:
        verify_result(value, data, case.result_type, kernel.identifier,
                      second)

    measurement = Measurement(
        case=case,
        config=config,
        trials=trials,
        elapsed_seconds=elapsed,
        # kernel.input_bytes == case.input_bytes for single-array ops;
        # dot streams both operands, so its metric counts both.
        bandwidth_gbs=gb_per_s(kernel.input_bytes * trials, elapsed),
        kernel=kernel,
        kernel_timing=timing,
        value=value,
        peak_bandwidth_gbs=machine.system.peak_gpu_bandwidth_gbs,
    )
    return measurement
