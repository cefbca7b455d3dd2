"""The simulated Grace-Hopper node everything runs on.

A :class:`Machine` bundles the hardware description, the GPU calibration,
the OpenMP device runtime, a trace, a value layer, and workload
generation.  It offers the two primitives the higher layers compose:

* :meth:`run_kernel` — predict a kernel's time (and record the launch,
  profiler-style);
* :meth:`workload` — a deterministic, size-capped input array for a case
  (the functional layer sums real numbers; the performance model reasons
  about the declared size).

``machine.values`` (:class:`~repro.sim.values.ValueLayer`) keeps the
functional values, host references and small thread levels computed on
this machine's workloads, so the slab and co-execution compute each once
per machine.  Oracles build their own machine, so they never share it.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from ..gpu.kernels import ReductionKernel
from ..gpu.perf import KernelTiming, estimate_kernel_time
from ..hardware.profiles import system_for_profile
from ..hardware.system import GraceHopperSystem
from ..memory.unified import UnifiedMemoryManager
from ..openmp.icv import ICVSet
from ..openmp.runtime import DeviceRuntime
from ..sim.trace import KernelLaunchRecord, Trace
from ..sim.values import ValueLayer
from .cases import Case

__all__ = ["Machine"]


class Machine:
    """A simulated GH200 node: hardware + runtime + trace + value layer +
    workloads."""

    def __init__(
        self,
        system: Optional[GraceHopperSystem] = None,
        calibration: Optional[GpuCalibration] = None,
        config: Optional[ReproConfig] = None,
        icvs: Optional[ICVSet] = None,
    ):
        self.config = config or DEFAULT_CONFIG
        # An explicit system wins; otherwise the config's named profile
        # resolves it ("gh200" reproduces the historical grace_hopper()).
        self.system = system or system_for_profile(self.config.machine_profile)
        self.calibration = calibration or DEFAULT_CALIBRATION
        if self.config.faults:
            from ..faults.injector import activate

            activate(self.config.faults)
        self.trace = Trace()
        self.values = ValueLayer()
        self.runtime = DeviceRuntime(self.system.gpu, icvs)
        self._workload_cache: Dict[tuple, np.ndarray] = {}
        # The service dispatches concurrent handlers against one shared
        # machine; lazy workload generation must not race.
        self._workload_lock = threading.Lock()

    # -- hardware shortcuts ---------------------------------------------------
    @property
    def gpu(self):
        return self.system.gpu

    @property
    def cpu(self):
        return self.system.cpu

    @property
    def link(self):
        return self.system.link

    def unified_memory(self) -> UnifiedMemoryManager:
        """A fresh UM manager sharing this machine's trace."""
        return UnifiedMemoryManager(self.system, self.trace)

    # -- execution primitives -------------------------------------------------
    def run_kernel(
        self,
        kernel: ReductionKernel,
        now: float = 0.0,
        effective_bandwidth_gbs: Optional[float] = None,
    ) -> KernelTiming:
        """Model one launch of *kernel*; records it in the trace."""
        timing = estimate_kernel_time(
            self.gpu,
            kernel,
            self.calibration,
            effective_bandwidth_gbs=effective_bandwidth_gbs,
        )
        self.trace.record_launch(
            KernelLaunchRecord(
                time=now,
                name=kernel.name,
                grid=kernel.geometry.grid,
                block=kernel.geometry.block,
                elements=kernel.elements,
                from_clause=kernel.geometry.from_clause,
                duration=timing.total,
            )
        )
        return timing

    # -- workloads ---------------------------------------------------------------
    def functional_elements(self, case: Case) -> int:
        """How many elements the functional layer actually sums for *case*."""
        return min(case.elements, self.config.functional_elements_cap)

    def workload(self, case: Case) -> np.ndarray:
        """Deterministic input array for *case* (cached, read-only view).

        Integers are drawn uniformly over a small range (so int32/int64
        accumulation exercises sign handling without always overflowing);
        floats over [0, 1) (well-conditioned sums, like the paper's
        verified workloads).
        """
        key = (case.element_type.name, self.functional_elements(case))
        data = self._workload_cache.get(key)
        if data is None:
            with self._workload_lock:
                data = self._workload_cache.get(key)
                if data is None:
                    rng = self.config.rng()
                    n = key[1]
                    if case.element_type.is_integer:
                        info = np.iinfo(case.element_type.numpy)
                        low = max(info.min, -100)
                        high = min(info.max, 100)
                        data = rng.integers(low, high + 1, size=n).astype(
                            case.element_type.numpy
                        )
                    else:
                        data = rng.random(n).astype(case.element_type.numpy)
                    data.setflags(write=False)
                    self._workload_cache[key] = data
        return data

    #: Seed XOR applied for the second operand of two-array reductions, so
    #: ``y`` is deterministic but decorrelated from ``x``.
    _PAIR_SEED_XOR = 0x9E3779B9

    def workload_pair(self, case: Case) -> np.ndarray:
        """Deterministic *second* input array for two-array reductions.

        Same distribution and size as :meth:`workload` but drawn from an
        independent stream (``config.seed ^ _PAIR_SEED_XOR``), cached and
        shared by the scalar, slab, and differential paths so ``dot``
        results stay byte-identical across them.
        """
        key = ("pair", case.element_type.name, self.functional_elements(case))
        data = self._workload_cache.get(key)
        if data is None:
            with self._workload_lock:
                data = self._workload_cache.get(key)
                if data is None:
                    rng = np.random.default_rng(
                        self.config.seed ^ self._PAIR_SEED_XOR
                    )
                    n = key[2]
                    if case.element_type.is_integer:
                        info = np.iinfo(case.element_type.numpy)
                        low = max(info.min, -100)
                        high = min(info.max, 100)
                        data = rng.integers(low, high + 1, size=n).astype(
                            case.element_type.numpy
                        )
                    else:
                        data = rng.random(n).astype(case.element_type.numpy)
                    data.setflags(write=False)
                    self._workload_cache[key] = data
        return data

    def describe(self) -> str:
        return self.system.describe()
