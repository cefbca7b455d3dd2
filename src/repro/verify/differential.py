"""The differential runner: fuzz cases in, divergence records out.

Every :class:`~repro.verify.fuzzer.FuzzCase` is executed through each
independent path that should agree, and any disagreement beyond the
dtype-aware :class:`~repro.verify.oracles.OracleTolerances` becomes a
:class:`Divergence`:

``exec``
    device executor vs host executor vs exact serial ground truth, plus
    metamorphic transforms (permutation, split-in-two, scale-by-c), the
    Listing-6 measurement identity ``bandwidth * elapsed == bytes *
    trials * 1e-9``, measurement determinism (machine vs twin), and the
    closed-form roofline placement (``achieved <= memory ceiling``,
    deterministic).
``directive``
    parse twice -> identical Directive; compile through a fresh front
    end and through the process compile cache -> identical directive and
    launch geometry; ``num_teams(n)`` must yield grid ``n`` exactly;
    then the functional device/serial cross-check.
``reject``
    two full compile attempts must fail with the same error class and
    the same diagnostic codes; silent acceptance, a shifting class, or
    (for the paper's Listing-4 increment and the ``!=`` test op) the
    wrong diagnostic code is a conformance divergence.
``sweep-cache``
    the same point batch through an uncached executor, a cold fresh
    persistent cache and the warmed cache must be byte-equal under
    canonical JSON, and equal to the scalar oracle
    (:func:`~repro.verify.oracles.scalar_gpu_records`) on the twin.
``coexec``
    every point of a co-execution p sweep must reproduce the serial
    ground truth of the machine workload and satisfy the Listing-8
    bandwidth identity.
``service``
    the in-process service pipeline (admission -> batcher -> scheduler)
    must return the byte-identical raw record the direct executor path
    computes (presentation-only ``summary`` stripped).
``op-exec``
    an extended identifier (``min``/``max``/``argmax``/``dot`` or the
    fused ``sum+max`` pair) on its drawn machine profile: device vs host
    vs exact serial oracles, op-specific metamorphic transforms
    (min/max permutation invariance, argmax tie-break determinism, dot
    scale-linearity), measurement determinism (machine vs twin), the
    two-operand-aware bandwidth identity, and the slab-vs-scalar
    byte-identity oracle.
``op-reject``
    extended-op misuse must fail with a pinned error class and stable
    diagnostic code (``OMP-RED-101``/``OMP-RED-201``/``NVHPC-OMP-201``)
    on every attempt.
``jobs-resume``
    a streaming job (:mod:`repro.jobs`) paused at a checkpoint boundary
    and resumed in a fresh executor must leave a sealed manifest and
    result shards **byte-identical** to an uninterrupted run's (one
    deterministic scenario per run, not a generated case — see
    :func:`check_job_resume`).

The runner probes the :mod:`repro.faults` point ``verify.oracle`` once
per ``exec`` case; when a plan fires it the device value is corrupted
before comparison, so ``repro --faults 'verify.oracle:corrupt' verify
fuzz`` deterministically exercises the divergence (exit 1) path without
any test-only backdoor.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.cache import cached_compile
from ..compiler.diagnostics import (
    NON_CANONICAL_LOOP,
    OPERAND_ARITY,
    UNSUPPORTED_INCREMENT,
)
from ..compiler.nvhpc import NvhpcCompiler, ReductionLoopProgram
from ..core.cases import Case
from ..core.coexec import AllocationSite, measure_coexec_sweep
from ..core.machine import Machine
from ..core.optimized import KernelConfig, optimized_program
from ..core.baseline import baseline_program
from ..core.timing import measure_gpu_reduction
from ..core.workloads import generate_workload
from ..errors import ReproError
from ..evaluation.roofline import roofline_point
from ..faults.injector import fire
from ..gpu.exec_model import execute_reduction
from ..cpu.exec_model import execute_host_reduction
from ..openmp.canonical import ForLoop, listing4_loop, listing5_loop
from ..openmp.clauses import NumTeams, Reduction, ThreadLimit
from ..openmp.directives import FUSED_DUPLICATE_VAR
from ..openmp.parser import parse_pragma
from ..openmp.reduction_ops import ARGMAX_RESULT_TYPE, required_arrays
from ..sweep.executor import MachineSpec, SweepExecutor
from ..sweep.fingerprint import canonical_json
from ..sweep.result_cache import open_result_cache
from ..util.units import gb_per_s
from .fuzzer import FuzzCase, case_list_digest, generate_cases
from .oracles import (
    OracleTolerances,
    scalar_gpu_records,
    serial_ground_truth,
    tolerances_for,
)

__all__ = [
    "DifferentialRunner",
    "Divergence",
    "FuzzReport",
    "check_job_resume",
    "run_fuzz",
]

#: Fault-injection point probed once per ``exec`` case (see module doc).
ORACLE_FAULT_POINT = "verify.oracle"

#: Coarse p grid for fuzzed co-execution sweeps (the full Listing-8 grid
#: is exercised by the golden corpus; fuzzing needs breadth, not depth).
_COEXEC_P_GRID = (0.0, 0.5, 1.0)

#: Relative slack for identities that are algebraically exact but pass
#: through float division (bandwidth = bytes / elapsed).
_IDENTITY_RTOL = 1e-9


@dataclass(frozen=True)
class Divergence:
    """One disagreement between paths that must agree."""

    case_id: str
    index: int
    kind: str
    check: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case_id": self.case_id,
            "index": self.index,
            "kind": self.kind,
            "check": self.check,
            "detail": self.detail,
        }

    def describe(self) -> str:
        return f"case #{self.index} [{self.kind}] {self.check}: {self.detail}"


@dataclass
class FuzzReport:
    """Outcome of one fuzz run (JSON-serializable via :meth:`to_dict`)."""

    seed: int
    requested: int
    kinds: Optional[Tuple[str, ...]]
    digest: str
    cases_run: int
    checks: int
    duration_s: float
    by_kind: Dict[str, int]
    divergences: List[Divergence]
    exhausted: bool  # False when the time budget cut the run short

    @property
    def ok(self) -> bool:
        return not self.divergences and self.cases_run > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "requested": self.requested,
            "kinds": list(self.kinds) if self.kinds else None,
            "case_list_sha256": self.digest,
            "cases_run": self.cases_run,
            "checks": self.checks,
            "duration_s": self.duration_s,
            "by_kind": dict(sorted(self.by_kind.items())),
            "exhausted": self.exhausted,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def describe(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        kinds = " ".join(f"{k}={v}" for k, v in sorted(self.by_kind.items()))
        return (
            f"fuzz seed={self.seed}: {self.cases_run}/{self.requested} cases, "
            f"{self.checks} checks in {self.duration_s:.1f}s [{kinds}] "
            f"-> {status}"
        )


def _plain(value: Any) -> Any:
    """Coerce NumPy scalars to JSON-safe Python values (repr for NaN)."""
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return f if np.isfinite(f) else repr(f)
    return value


def _wrap_int(value: int, bits: int) -> int:
    """Two's-complement wrap of an exact integer into *bits* bits."""
    return ((int(value) + (1 << (bits - 1))) % (1 << bits)) - (1 << (bits - 1))


class DifferentialRunner:
    """Feeds fuzz cases through the oracles and records divergences."""

    def __init__(self, machine: Optional[Machine] = None):
        self.machine = machine or Machine()
        # A twin machine rebuilt from the same spec but sharing no
        # per-machine memo: the scalar oracle and the second measurement
        # of each determinism check run on it, so neither can replay a
        # result the machine under test already holds.
        self.twin = MachineSpec.of(self.machine).build()
        self.compiler = NvhpcCompiler()
        #: Lazily-built (machine, twin) pairs per named profile — op
        #: cases run on the profile they drew, against its own twin.
        self._profile_machines: Dict[str, Tuple[Machine, Machine]] = {}
        #: Total comparisons performed (reported for visibility — a run
        #: with zero divergences but also near-zero checks is a red flag).
        self.checks = 0

    def _machines_for(self, profile: Optional[str]) -> Tuple[Machine, Machine]:
        """The (machine, twin) pair for *profile*."""
        if profile is None or profile == self.machine.config.machine_profile:
            return self.machine, self.twin
        pair = self._profile_machines.get(profile)
        if pair is None:
            cfg = dc_replace(self.machine.config, machine_profile=profile)
            machine = Machine(config=cfg)
            pair = (machine, MachineSpec.of(machine).build())
            self._profile_machines[profile] = pair
        return pair

    # -- plumbing -------------------------------------------------------------
    def _agree(
        self,
        case: FuzzCase,
        check: str,
        a: Any,
        b: Any,
        tol: OracleTolerances,
        out: List[Divergence],
        **extra: Any,
    ) -> None:
        self.checks += 1
        if not tol.agree(a, b):
            out.append(
                Divergence(
                    case_id=case.case_id,
                    index=case.index,
                    kind=case.kind,
                    check=check,
                    detail={
                        "lhs": _plain(a),
                        "rhs": _plain(b),
                        "tolerance": tol.describe(),
                        **{k: _plain(v) for k, v in extra.items()},
                    },
                )
            )

    def _expect(
        self,
        case: FuzzCase,
        check: str,
        condition: bool,
        out: List[Divergence],
        **detail: Any,
    ) -> None:
        self.checks += 1
        if not condition:
            out.append(
                Divergence(
                    case_id=case.case_id,
                    index=case.index,
                    kind=case.kind,
                    check=check,
                    detail={k: _plain(v) for k, v in detail.items()},
                )
            )

    def _case_obj(self, case: FuzzCase) -> Case:
        return Case(
            name=f"fz{case.index}",
            element_type=case.dtype,
            result_type=case.result_dtype,
            elements=case.elements,
        )

    def _config(self, case: FuzzCase) -> Optional[KernelConfig]:
        if case.teams is None:
            return None
        return KernelConfig(teams=case.teams, v=case.v, threads=case.threads)

    def _kernel(self, case: FuzzCase, case_obj: Case):
        config = self._config(case)
        if config is None:
            program = baseline_program(case_obj)
            env = None
        else:
            program = optimized_program(case_obj, config)
            env = config.env()
        return cached_compile(program).launch(self.machine.runtime, env), config

    # -- case dispatch --------------------------------------------------------
    def check_case(self, case: FuzzCase) -> List[Divergence]:
        """Run every applicable oracle for *case*; returns divergences."""
        out: List[Divergence] = []
        handler = {
            "exec": self._check_exec,
            "directive": self._check_directive,
            "reject": self._check_reject,
            "sweep-cache": self._check_sweep_cache,
            "coexec": self._check_coexec,
            "service": self._check_service,
            "op-exec": self._check_op_exec,
            "op-reject": self._check_op_reject,
        }[case.kind]
        handler(case, out)
        return out

    # -- exec: device vs host vs serial + metamorphic + analytic --------------
    def _check_exec(self, case: FuzzCase, out: List[Divergence]) -> None:
        case_obj = self._case_obj(case)
        kernel, config = self._kernel(case, case_obj)
        data = generate_workload(
            case.workload, case.dtype, case.elements, seed=case.data_seed
        )
        tol = tolerances_for(data, case.result_dtype)

        device = execute_reduction(data, kernel)
        decision = fire(ORACLE_FAULT_POINT)
        if decision is not None:
            # A fault plan targeting the oracle corrupts the device value
            # so the divergence path is deterministically reachable.
            if tol.result_type.is_integer:
                device = tol.result_type.numpy.type(
                    _wrap_int(int(device) + 1, tol.result_type.bits)
                )
            else:
                device = tol.result_type.numpy.type(
                    float(device) + tol.absolute_bound * 4.0 + 1.0
                )
        serial = serial_ground_truth(data, case.result_dtype)
        host = execute_host_reduction(
            data, self.machine.cpu, case.result_dtype
        )

        self._expect(
            case, "device-determinism",
            bool(np.array_equal(device, execute_reduction(data, kernel))
                 if decision is None else True),
            out,
        )
        self._agree(case, "device-vs-serial", device, serial, tol, out)
        self._agree(case, "host-vs-serial", host, serial, tol, out)
        self._agree(case, "device-vs-host", device, host, tol, out)

        self._metamorphic(case, case_obj, kernel, data, serial, tol, out)
        self._measurement_identities(case, case_obj, config, kernel, out)

    def _metamorphic(self, case, case_obj, kernel, data, serial, tol, out):
        # Permutation invariance: the sum must not depend on input order
        # (exactly for wrapped integers, within tolerance for floats).
        perm = np.random.default_rng(case.data_seed ^ 0x5EED).permutation(
            data.size
        )
        self._agree(
            case, "metamorphic-permutation",
            execute_reduction(data[perm], kernel), serial, tol, out,
        )

        # Split additivity: serial(first) (+) serial(second) == device(all).
        mid = data.size // 2
        first = serial_ground_truth(data[:mid], case.result_dtype)
        second = serial_ground_truth(data[mid:], case.result_dtype)
        if tol.result_type.is_integer:
            combined: Any = _wrap_int(
                int(first) + int(second), tol.result_type.bits
            )
        else:
            combined = float(first) + float(second)
        self._agree(
            case, "metamorphic-split",
            execute_reduction(data, kernel), combined, tol, out,
        )

        # Scaling: sum(c*x) == c*sum(x).  Exact mod 2**bits only when T
        # and R are the same width (wrapping happens in T before the
        # accumulator sees the values); float comparison is bounded by
        # the *element* type's eps, which dominates when R is wider.
        c = 3
        scaled = data * np.asarray(c, dtype=data.dtype)
        if tol.result_type.is_integer:
            if case.dtype == case.result_dtype:
                expected: Any = _wrap_int(c * int(serial), tol.result_type.bits)
                self._agree(
                    case, "metamorphic-scale",
                    execute_reduction(scaled, kernel), expected, tol, out,
                )
            else:
                self._agree(
                    case, "metamorphic-scale",
                    execute_reduction(scaled, kernel),
                    serial_ground_truth(scaled, case.result_dtype),
                    tol, out,
                )
        else:
            scale_tol = tolerances_for(scaled, case.dtype)
            self._agree(
                case, "metamorphic-scale",
                execute_reduction(scaled, kernel), c * float(serial),
                scale_tol, out,
            )

    def _measurement_identities(self, case, case_obj, config, kernel, out):
        m1 = measure_gpu_reduction(
            self.machine, case_obj, config, trials=case.trials, verify=False
        )
        m2 = measure_gpu_reduction(
            self.twin, case_obj, config, trials=case.trials, verify=False
        )
        self._expect(
            case, "measurement-determinism",
            m1.elapsed_seconds == m2.elapsed_seconds
            and m1.bandwidth_gbs == m2.bandwidth_gbs
            and bool(np.array_equal(m1.value, m2.value)),
            out,
            elapsed=(m1.elapsed_seconds, m2.elapsed_seconds),
            bandwidth=(m1.bandwidth_gbs, m2.bandwidth_gbs),
        )
        # Listing 6 metric identity: bandwidth, elapsed and bytes are
        # three readings of one quantity.
        implied = gb_per_s(
            case_obj.input_bytes * case.trials, m1.elapsed_seconds
        )
        self._expect(
            case, "bandwidth-identity",
            abs(m1.bandwidth_gbs - implied)
            <= _IDENTITY_RTOL * max(abs(implied), 1.0),
            out,
            bandwidth=m1.bandwidth_gbs, implied=implied,
        )
        # The measured value sums the machine workload; the serial oracle
        # must agree on that array too.
        wdata = self.machine.workload(case_obj)
        self._agree(
            case, "measurement-vs-serial",
            m1.value, serial_ground_truth(wdata, case.result_dtype),
            tolerances_for(wdata, case.result_dtype), out,
        )
        # Analytic placement: the model's achieved bandwidth must be
        # deterministic and cannot beat the memory ceiling.
        rp = roofline_point(self.machine.gpu, kernel, self.machine.calibration)
        self._expect(
            case, "roofline-determinism",
            rp == roofline_point(
                self.machine.gpu, kernel, self.machine.calibration
            ),
            out,
        )
        self._expect(
            case, "roofline-ceiling",
            0.0 < rp.achieved_gbs <= 1.01 * rp.memory_ceiling_gbs,
            out,
            achieved=rp.achieved_gbs, memory_ceiling=rp.memory_ceiling_gbs,
            binding=rp.binding,
        )

    # -- directive: parse/compile stability + geometry conformance ------------
    def _check_directive(self, case: FuzzCase, out: List[Divergence]) -> None:
        assert case.pragma is not None
        d1 = parse_pragma(case.pragma)
        d2 = parse_pragma(case.pragma)
        self._expect(
            case, "parse-determinism", d1 == d2, out, pragma=case.pragma
        )

        case_obj = self._case_obj(case)
        loop = listing5_loop(case.elements, case.v)
        program = ReductionLoopProgram(
            pragma=case.pragma,
            loop=loop,
            element_type=case_obj.element_type,
            result_type=case_obj.result_type,
            name=f"fz{case.index}_directive",
        )
        fresh = self.compiler.compile(program)
        cached = cached_compile(program)
        self._expect(
            case, "compile-cache-equivalence",
            fresh.directive == cached.directive
            and fresh.identifier == cached.identifier
            and fresh.loop == cached.loop,
            out, pragma=case.pragma,
        )

        kernel = fresh.launch(self.machine.runtime)
        if case.teams is not None:
            num_teams = d1.first(NumTeams)
            thread_limit = d1.first(ThreadLimit)
            self._expect(
                case, "geometry-conformance",
                num_teams is not None
                and kernel.geometry.grid == num_teams.value.evaluate({})
                and (thread_limit is None
                     or kernel.geometry.block
                     == thread_limit.value.evaluate({})),
                out,
                grid=kernel.geometry.grid,
                block=kernel.geometry.block,
                pragma=case.pragma,
            )
        data = generate_workload(
            "uniform", case.dtype, case.elements, seed=case.data_seed
        )
        self._agree(
            case, "device-vs-serial",
            execute_reduction(data, kernel),
            serial_ground_truth(data, case.result_dtype),
            tolerances_for(data, case.result_dtype), out,
        )

    # -- reject: same refusal, every time --------------------------------------
    def _reject_attempt(self, case: FuzzCase) -> Tuple[str, Tuple[str, ...], str]:
        """One full front-end attempt; returns (error class, codes, message).

        Returns ``("accepted", (), "")`` when nothing was rejected —
        which for a ``reject`` case is itself a divergence.
        """
        case_obj = self._case_obj(case)
        if case.mutation == "listing4-increment":
            loop: ForLoop = listing4_loop(case.elements, case.v)
        elif case.mutation == "noncanonical-test-op":
            loop = ForLoop(
                var="i",
                trip_count=case.elements // case.v,
                step=1,
                increment_form="var++",
                elements_per_iteration=case.v,
                test_op="!=",
            )
        else:
            loop = listing5_loop(case.elements, case.v)
        try:
            program = ReductionLoopProgram(
                pragma=case.pragma,
                loop=loop,
                element_type=case_obj.element_type,
                result_type=case_obj.result_type,
                name=f"fz{case.index}_reject",
            )
            NvhpcCompiler().compile(program)
        except ReproError as exc:
            codes = tuple(
                d.code for d in getattr(exc, "diagnostics", ()) or ()
            )
            return type(exc).__name__, codes, str(exc)
        return "accepted", (), ""

    def _check_reject(self, case: FuzzCase, out: List[Divergence]) -> None:
        first = self._reject_attempt(case)
        second = self._reject_attempt(case)
        self._expect(
            case, "reject-refuses",
            first[0] != "accepted",
            out, mutation=case.mutation, pragma=case.pragma,
        )
        self._expect(
            case, "reject-stability",
            first == second,
            out, first=list(first[:2]), second=list(second[:2]),
            mutation=case.mutation,
        )
        expected_code = {
            "listing4-increment": UNSUPPORTED_INCREMENT,
            "noncanonical-test-op": NON_CANONICAL_LOOP,
        }.get(case.mutation or "")
        if expected_code is not None:
            self._expect(
                case, "reject-diagnostic-code",
                expected_code in first[1],
                out, expected=expected_code, got=list(first[1]),
                mutation=case.mutation,
            )

    # -- sweep-cache: uncached == cold cache == warm cache ---------------------
    def _sweep_configs(self, case: FuzzCase) -> List[KernelConfig]:
        points = dict(case.extras).get("point_teams") or [case.teams or 256]
        return [
            KernelConfig(teams=int(t), v=case.v, threads=case.threads)
            for t in points
        ]

    def _check_sweep_cache(self, case: FuzzCase, out: List[Divergence]) -> None:
        case_obj = self._case_obj(case)
        configs = self._sweep_configs(case)
        uncached = SweepExecutor(
            self.machine, workers=1, cache=None
        ).gpu_points(case_obj, configs, trials=case.trials, verify=False)
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            executor = SweepExecutor(
                self.machine, workers=1, cache=open_result_cache(tmp)
            )
            cold = executor.gpu_points(
                case_obj, configs, trials=case.trials, verify=False
            )
            warm = executor.gpu_points(
                case_obj, configs, trials=case.trials, verify=False
            )
        blobs = {
            "uncached": canonical_json(uncached),
            "cold": canonical_json(cold),
            "warm": canonical_json(warm),
        }
        self._expect(
            case, "cache-transparency",
            blobs["uncached"] == blobs["cold"] == blobs["warm"],
            out,
            mismatched=[
                name for name in ("cold", "warm")
                if blobs[name] != blobs["uncached"]
            ],
        )
        # Slab vs scalar oracle: the batch-vectorized hot path must
        # produce byte-identical records to the point-at-a-time scalar
        # pipeline it replaced.
        scalar = scalar_gpu_records(
            self.twin,
            [(case_obj, config, case.trials, False) for config in configs],
        )
        self._expect(
            case, "slab-vs-scalar-oracle",
            canonical_json(scalar) == blobs["uncached"],
            out,
            scalar=scalar,
            slab=uncached,
        )

    # -- coexec: p sweep values + Listing-8 identity ---------------------------
    def _check_coexec(self, case: FuzzCase, out: List[Divergence]) -> None:
        case_obj = self._case_obj(case)
        sweep = measure_coexec_sweep(
            self.machine,
            case_obj,
            AllocationSite(case.site),
            self._config(case),
            p_grid=_COEXEC_P_GRID,
            trials=case.trials,
            verify=False,
            unified_memory=case.unified_memory,
        )
        wdata = self.machine.workload(case_obj)
        tol = tolerances_for(wdata, case.result_dtype)
        truth = serial_ground_truth(wdata, case.result_dtype)
        for m in sweep.measurements:
            self._agree(
                case, "coexec-value-vs-serial", m.value, truth, tol, out,
                cpu_part=m.cpu_part,
            )
            implied = gb_per_s(
                case_obj.input_bytes * case.trials, m.elapsed_seconds
            )
            self._expect(
                case, "coexec-bandwidth-identity",
                abs(m.bandwidth_gbs - implied)
                <= _IDENTITY_RTOL * max(abs(implied), 1.0),
                out, cpu_part=m.cpu_part,
                bandwidth=m.bandwidth_gbs, implied=implied,
            )

    # -- service: pipeline record == direct executor record --------------------
    def _check_service(self, case: FuzzCase, out: List[Divergence]) -> None:
        from ..service.api import SimRequest
        from ..service.scheduler import ReductionService, ServiceSettings

        case_obj = self._case_obj(case)
        config = self._config(case)
        direct = SweepExecutor(self.machine, workers=1, cache=None).run(
            "gpu_point", [(case_obj, config, case.trials, False)],
            stage="verify-direct",
        )[0]

        async def _roundtrip() -> Any:
            service = ReductionService(
                machine=self.machine,
                executor=SweepExecutor(self.machine, workers=1, cache=None),
                settings=ServiceSettings(degrade=False),
            )
            try:
                return await service.submit(
                    SimRequest(
                        experiment="gpu",
                        case=case_obj,
                        config=config,
                        trials=case.trials,
                    )
                )
            finally:
                await service.stop()

        response = asyncio.run(_roundtrip())
        self._expect(
            case, "service-ok",
            response.ok and not response.degraded,
            out, status=response.status, reason=response.reason,
        )
        if response.ok and response.result is not None:
            raw = {
                k: v for k, v in response.result.items() if k != "summary"
            }
            self._expect(
                case, "service-vs-direct",
                canonical_json(raw) == canonical_json(direct),
                out, service=raw, direct=direct,
            )


    # -- op-exec: extended identifiers across machine profiles -----------------

    #: Seed perturbation for dot's second fuzz operand (same constant the
    #: machine workload pair uses, applied to the fuzz data seed).
    _PAIR_SEED_XOR = 0x9E3779B9

    def _op_kernel(self, case: FuzzCase, case_obj: Case, op: str,
                   machine: Machine):
        """Compile+launch the case's program with its clause rewritten to *op*."""
        config = self._config(case)
        if config is None:
            program = baseline_program(case_obj)
            env = None
        else:
            program = optimized_program(case_obj, config)
            env = config.env()
        if op != "+":
            program = dc_replace(
                program,
                pragma=program.pragma.replace(
                    "reduction(+:sum)", f"reduction({op}:sum)"
                ),
                name=f"{program.name}_{op}",
                arrays=required_arrays(op),
            )
        return cached_compile(program).launch(machine.runtime, env), config

    def _check_op_exec(self, case: FuzzCase, out: List[Divergence]) -> None:
        machine, twin = self._machines_for(case.profile)
        case_obj = self._case_obj(case)
        data = generate_workload(
            case.workload, case.dtype, case.elements, seed=case.data_seed
        )
        if case.op == "sum+max":
            self._fused_directive_checks(case, out)
            sub_ops: Tuple[str, ...] = ("+", "max")
        else:
            sub_ops = (case.op,)
        for op in sub_ops:
            second = None
            if op == "dot":
                second = generate_workload(
                    case.workload, case.dtype, case.elements,
                    seed=case.data_seed ^ self._PAIR_SEED_XOR,
                )
            kernel, config = self._op_kernel(case, case_obj, op, machine)
            tol = tolerances_for(data, case.result_dtype, op, second)
            device = execute_reduction(data, kernel, second)
            serial = serial_ground_truth(data, case.result_dtype, op, second)
            host = execute_host_reduction(
                data, machine.cpu, case.result_dtype, op, second
            )
            tag = f"[{op}]" if case.op == "sum+max" else ""
            self._expect(
                case, f"op-device-determinism{tag}",
                bool(np.array_equal(
                    device, execute_reduction(data, kernel, second)
                )),
                out, op=op,
            )
            self._agree(case, f"op-device-vs-serial{tag}", device, serial,
                        tol, out, op=op)
            self._agree(case, f"op-host-vs-serial{tag}", host, serial,
                        tol, out, op=op)
            self._agree(case, f"op-device-vs-host{tag}", device, host,
                        tol, out, op=op)
            self._op_metamorphic(case, op, kernel, data, second, serial,
                                 tol, out)
            self._op_measurement(case, case_obj, config, op, machine,
                                 twin, out)

    def _fused_directive_checks(self, case: FuzzCase,
                                out: List[Divergence]) -> None:
        """Parse-level contract for the fused two-clause reduction."""
        pragma = (
            "#pragma omp target teams distribute parallel for "
            "reduction(+:sum) reduction(max:peak)"
        )
        d1 = parse_pragma(pragma)
        self._expect(
            case, "fused-parse-determinism", d1 == parse_pragma(pragma),
            out, pragma=pragma,
        )
        reductions = [c for c in d1.clauses if isinstance(c, Reduction)]
        self._expect(
            case, "fused-clause-count",
            len(reductions) == 2
            and {r.identifier for r in reductions} == {"+", "max"},
            out, pragma=pragma,
            identifiers=sorted(r.identifier for r in reductions),
        )

    def _op_metamorphic(self, case, op, kernel, data, second, serial, tol,
                        out) -> None:
        if op in ("+", "min", "max"):
            # Order invariance: exact for min/max (and wrapped integers),
            # within tolerance for float sums.
            perm = np.random.default_rng(
                case.data_seed ^ 0x5EED
            ).permutation(data.size)
            self._agree(
                case, f"op-metamorphic-permutation[{op}]",
                execute_reduction(data[perm], kernel), serial, tol, out,
                op=op,
            )
        elif op == "argmax":
            # Tie-break determinism: duplicate the maximum at another
            # index; the FIRST (lowest) index must still win, on both
            # the device hierarchy and the serial scan.
            if data.size >= 2:
                i0 = int(serial)
                tied = data.copy()
                if i0 == data.size - 1:
                    j, expected = 0, 0
                else:
                    j, expected = data.size - 1, i0
                tied[j] = data[i0]
                self._agree(
                    case, "op-metamorphic-argmax-tie",
                    execute_reduction(tied, kernel), expected, tol, out,
                    tie_index=j,
                )
                self._agree(
                    case, "op-metamorphic-argmax-tie-serial",
                    serial_ground_truth(tied, case.result_dtype, "argmax"),
                    expected, tol, out, tie_index=j,
                )
        elif op == "dot":
            # Scale-linearity: (c*x)·y == c*(x·y) — exact mod 2**bits
            # semantics fold into the serial oracle for integers, float
            # agreement is bounded by the scaled conditioning.
            c = 3
            scaled = data * np.asarray(c, dtype=data.dtype)
            if tol.result_type.is_integer:
                self._agree(
                    case, "op-metamorphic-dot-scale",
                    execute_reduction(scaled, kernel, second),
                    serial_ground_truth(
                        scaled, case.result_dtype, "dot", second
                    ),
                    tol, out,
                )
            else:
                scale_tol = tolerances_for(
                    scaled, case.result_dtype, "dot", second
                )
                self._agree(
                    case, "op-metamorphic-dot-scale",
                    execute_reduction(scaled, kernel, second),
                    c * float(serial), scale_tol, out,
                )

    def _op_measurement(self, case, case_obj, config, op, machine,
                        twin, out) -> None:
        tag = f"[{op}]" if case.op == "sum+max" else ""
        m1 = measure_gpu_reduction(
            machine, case_obj, config, trials=case.trials, verify=True,
            op=op,
        )
        m2 = measure_gpu_reduction(
            twin, case_obj, config, trials=case.trials, verify=True,
            op=op,
        )
        self._expect(
            case, f"op-measurement-determinism{tag}",
            m1.elapsed_seconds == m2.elapsed_seconds
            and m1.bandwidth_gbs == m2.bandwidth_gbs
            and bool(np.array_equal(m1.value, m2.value)),
            out, op=op,
            elapsed=(m1.elapsed_seconds, m2.elapsed_seconds),
        )
        # Listing-6 identity, with dot's two-operand traffic counted.
        implied = gb_per_s(
            case_obj.input_bytes * required_arrays(op) * case.trials,
            m1.elapsed_seconds,
        )
        self._expect(
            case, f"op-bandwidth-identity{tag}",
            abs(m1.bandwidth_gbs - implied)
            <= _IDENTITY_RTOL * max(abs(implied), 1.0),
            out, op=op, bandwidth=m1.bandwidth_gbs, implied=implied,
        )
        # The measured value reduces the machine workload (pair); the
        # serial oracle must agree on those arrays too.
        wdata = machine.workload(case_obj)
        wsecond = machine.workload_pair(case_obj) if op == "dot" else None
        self._agree(
            case, f"op-measurement-vs-serial{tag}", m1.value,
            serial_ground_truth(wdata, case.result_dtype, op, wsecond),
            tolerances_for(wdata, case.result_dtype, op, wsecond), out,
            op=op,
        )
        # Slab vs scalar oracle on this profile: the batch-vectorized
        # path must match the point-at-a-time pipeline byte for byte.
        slab_recs = SweepExecutor(
            machine, workers=1, cache=None
        ).gpu_points(case_obj, [config], trials=case.trials, verify=False,
                     op=op)
        scalar_recs = scalar_gpu_records(
            twin, [(case_obj, config, case.trials, False, op)]
        )
        self._expect(
            case, f"op-slab-vs-scalar{tag}",
            canonical_json(slab_recs) == canonical_json(scalar_recs),
            out, op=op, slab=slab_recs, scalar=scalar_recs,
        )

    # -- op-reject: stable diagnostics for extended-op misuse ------------------

    #: Contract table: mutation -> (error class, required diagnostic code).
    OP_REJECT_CONTRACT: Dict[str, Tuple[str, Optional[str]]] = {
        "unknown-op-spelling": ("DirectiveSyntaxError", None),
        "fused-duplicate-var": ("ClauseError", FUSED_DUPLICATE_VAR),
        "dot-missing-pair": ("CompileError", OPERAND_ARITY),
        "argmax-float-result": ("UnsupportedReductionError",
                                ARGMAX_RESULT_TYPE),
        "fused-bad-identifier": ("DirectiveSyntaxError", None),
    }

    def _op_reject_attempt(
        self, case: FuzzCase
    ) -> Tuple[str, Tuple[str, ...], str]:
        """One full front-end attempt on an op-reject case."""
        case_obj = self._case_obj(case)
        try:
            program = ReductionLoopProgram(
                pragma=case.pragma,
                loop=listing5_loop(case.elements, case.v),
                element_type=case_obj.element_type,
                result_type=case_obj.result_type,
                name=f"fz{case.index}_op_reject",
            )
            NvhpcCompiler().compile(program)
        except ReproError as exc:
            codes = tuple(
                d.code for d in getattr(exc, "diagnostics", ()) or ()
            )
            own = getattr(exc, "code", None)
            if own and own not in codes:
                codes = codes + (own,)
            return type(exc).__name__, codes, str(exc)
        return "accepted", (), ""

    def _check_op_reject(self, case: FuzzCase, out: List[Divergence]) -> None:
        first = self._op_reject_attempt(case)
        second = self._op_reject_attempt(case)
        self._expect(
            case, "op-reject-refuses", first[0] != "accepted", out,
            mutation=case.mutation, pragma=case.pragma,
        )
        self._expect(
            case, "op-reject-stability", first == second, out,
            first=list(first[:2]), second=list(second[:2]),
            mutation=case.mutation,
        )
        expected_class, expected_code = self.OP_REJECT_CONTRACT[
            case.mutation or ""
        ]
        self._expect(
            case, "op-reject-error-class", first[0] == expected_class, out,
            expected=expected_class, got=first[0], mutation=case.mutation,
        )
        if expected_code is not None:
            self._expect(
                case, "op-reject-diagnostic-code",
                expected_code in first[1], out,
                expected=expected_code, got=list(first[1]),
                mutation=case.mutation,
            )


#: Synthetic kind name under which the jobs resume oracle reports (it is
#: one deterministic scenario per run, not a generated fuzz-case kind, so
#: the seed-stable case-list digest is untouched by its existence).
JOB_RESUME_KIND = "jobs-resume"


def check_job_resume(
    machine: Optional[Machine] = None,
    interrupt_at: int = 5,
) -> Tuple[List[Divergence], int]:
    """The resume oracle: interrupted-then-resumed == uninterrupted.

    Runs one small multi-shard job twice — straight through, and paused
    at a checkpoint boundary then resumed in a fresh executor — and
    requires the sealed manifest and every result shard to be
    **byte-identical** between the two directories.  Returns
    ``(divergences, checks performed)``.
    """
    from pathlib import Path

    from ..jobs.api import JobSpec
    from ..jobs.manager import run_job
    from ..jobs.store import SHARD_DIR

    machine = machine or Machine()
    # Small enough for CI, shaped to cross both a checkpoint interval
    # and a shard rotation before the interruption point.
    spec = JobSpec(
        case="C1",
        teams=(64, 128, 256),
        v=(2, 4),
        threads=(32, 64),
        trials=5,
        checkpoint_interval=4,
        shard_records=5,
    )
    out: List[Divergence] = []
    checks = 0

    def expect(check: str, condition: bool, **detail: Any) -> None:
        nonlocal checks
        checks += 1
        if not condition:
            out.append(
                Divergence(
                    case_id="job-resume",
                    index=-1,
                    kind=JOB_RESUME_KIND,
                    check=check,
                    detail=detail,
                )
            )

    def run(directory: Path, **kwargs: Any) -> Dict[str, Any]:
        # A fresh single-worker executor per phase mimics the separate
        # processes of a real kill-and-restart.
        executor = SweepExecutor(machine, workers=1, cache=None)
        try:
            return run_job(directory, spec, executor, **kwargs)
        finally:
            executor.close()

    with tempfile.TemporaryDirectory(prefix="repro-verify-jobs-") as tmp:
        single = Path(tmp) / "single"
        resumed = Path(tmp) / "resumed"
        truth = run(single)
        expect("single-shot-completes", truth.get("state") == "DONE",
               state=truth.get("state"), error=truth.get("error"))

        paused = run(resumed, max_points=interrupt_at)
        expect(
            "interrupt-pauses-mid-run",
            paused.get("state") == "CHECKPOINTED"
            and 0 < int(paused.get("points_done", 0)) < spec.total_points(),
            state=paused.get("state"),
            points_done=paused.get("points_done"),
        )
        final = run(resumed)
        expect("resume-completes", final.get("state") == "DONE",
               state=final.get("state"), error=final.get("error"))

        names_a = sorted(
            p.name for p in (single / SHARD_DIR).glob("shard-*.jsonl")
        )
        names_b = sorted(
            p.name for p in (resumed / SHARD_DIR).glob("shard-*.jsonl")
        )
        expect("same-shard-layout", names_a == names_b,
               single=names_a, resumed=names_b)
        for rel in ["manifest.json"] + [
            f"{SHARD_DIR}/{name}" for name in names_a
        ]:
            blob_a = (single / rel).read_bytes()
            blob_b = (resumed / rel).read_bytes()
            expect(f"byte-identical:{rel}", blob_a == blob_b,
                   bytes_single=len(blob_a), bytes_resumed=len(blob_b))
    return out, checks


def run_fuzz(
    seed: int,
    count: int,
    kinds: Optional[Sequence[str]] = None,
    machine: Optional[Machine] = None,
    time_budget_s: Optional[float] = None,
    runner: Optional[DifferentialRunner] = None,
) -> FuzzReport:
    """Generate *count* cases for *seed* and differential-check each one.

    ``time_budget_s`` stops the run early (after the current case) once
    the wall-clock budget is spent — the CI smoke job uses this to pin
    its cost; the report's ``exhausted`` flag records whether the whole
    case list was covered.

    The ``jobs-resume`` oracle (:func:`check_job_resume`) runs once on
    top of the generated case list — in the default all-kinds run, or
    when requested by name in *kinds*.
    """
    want_jobs = kinds is None or JOB_RESUME_KIND in kinds
    gen_kinds = kinds
    if kinds is not None and JOB_RESUME_KIND in kinds:
        gen_kinds = tuple(k for k in kinds if k != JOB_RESUME_KIND)
    if gen_kinds is not None and not gen_kinds:
        cases = []  # only the jobs oracle was requested
    else:
        cases = generate_cases(seed, count, kinds=gen_kinds)
    digest = case_list_digest(cases)
    runner = runner or DifferentialRunner(machine)
    divergences: List[Divergence] = []
    by_kind: Dict[str, int] = {}
    started = time.monotonic()
    cases_run = 0
    exhausted = True
    for case in cases:
        if time_budget_s is not None and (
            time.monotonic() - started >= time_budget_s
        ):
            exhausted = False
            break
        divergences.extend(runner.check_case(case))
        by_kind[case.kind] = by_kind.get(case.kind, 0) + 1
        cases_run += 1
    if want_jobs and (
        time_budget_s is None
        or time.monotonic() - started < time_budget_s
    ):
        job_divergences, job_checks = check_job_resume(runner.machine)
        divergences.extend(job_divergences)
        runner.checks += job_checks
        by_kind[JOB_RESUME_KIND] = by_kind.get(JOB_RESUME_KIND, 0) + 1
        cases_run += 1
    elif want_jobs:
        exhausted = False
    return FuzzReport(
        seed=seed,
        requested=count,
        kinds=tuple(kinds) if kinds is not None else None,
        digest=digest,
        cases_run=cases_run,
        checks=runner.checks,
        duration_s=time.monotonic() - started,
        by_kind=by_kind,
        divergences=divergences,
        exhausted=exhausted,
    )
