"""Re-execution property: seeded worker faults never change sweep results.

The ISSUE-4 invariant behind the supervised pool: for any seeded
``FaultPlan`` whose ``worker.task`` fault rate is < 1, the pool's
records are byte-identical (canonical JSON) to a fault-free serial run —
crashes are restarted, corrupted results are detected by checksum and
re-executed, and slowness is just slowness.  Rates are bounded away
from 1 and retries kept generous so the probability of a task exhausting
its retry budget (every attempt drawing a firing probe) is negligible;
quarantine for genuinely poisoned tasks is covered by the example-based
supervisor tests.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro import Machine, ReproConfig
from repro.core.cases import C1
from repro.faults import SupervisedWorkerPool, injector
from repro.sweep.executor import MachineSpec
from repro.sweep.fingerprint import canonical_json
from repro.verify.oracles import scalar_gpu_records

from ..faults.test_supervisor import GPU_POINT_TASKS

_MACHINE = Machine(config=ReproConfig(functional_elements_cap=1 << 12))
_PAYLOADS = [(C1, None, 1 + i, False) for i in range(3)]


@lru_cache(maxsize=1)
def _expected():
    return tuple(
        canonical_json(r) for r in scalar_gpu_records(_MACHINE, _PAYLOADS)
    )


modes = st.sampled_from(["crash", "slow", "wrong_result"])
rates = st.floats(min_value=0.05, max_value=0.4)


@given(seed=st.integers(min_value=0, max_value=100_000), mode=modes,
       rate=rates)
@settings(max_examples=10, deadline=None)
def test_seeded_faults_yield_byte_identical_results(seed, mode, rate):
    delay = ":delay=0.01" if mode == "slow" else ""
    spec = f"seed={seed};worker.task:{mode}@{rate:g}{delay}"
    with injector.injected(spec):
        pool = SupervisedWorkerPool(
            MachineSpec.of(_MACHINE), GPU_POINT_TASKS, workers=2,
            max_task_retries=10, poll_s=0.02,
        )
        try:
            records, _spans = pool.run("gpu_point", _PAYLOADS)
        finally:
            pool.close()
    assert tuple(canonical_json(r) for r in records) == _expected()


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=5, deadline=None)
def test_layered_fault_plans_compose_without_corruption(seed):
    # With three layered rules the per-attempt fire probability is high
    # enough that a task can (rarely, but for real seeds) exhaust even a
    # generous retry budget and be quarantined.  The invariant is
    # therefore the chaos contract, not all-success: every record is
    # byte-identical to the fault-free run OR an *explicit* failure
    # record — detected, never silently corrupted.
    spec = (
        f"seed={seed};worker.task:wrong_result@0.3;"
        "worker.task:crash@0.2;worker.task:slow@0.3:delay=0.005"
    )
    with injector.injected(spec):
        pool = SupervisedWorkerPool(
            MachineSpec.of(_MACHINE), GPU_POINT_TASKS, workers=2,
            max_task_retries=10, poll_s=0.02,
        )
        try:
            records, _spans = pool.run("gpu_point", _PAYLOADS)
        finally:
            pool.close()
    for record, expected in zip(records, _expected()):
        assert canonical_json(record) == expected or (
            record.get("failed") is True and record.get("error")
        )
