"""Property test: the slab evaluator is byte-identical to the scalar path.

The tentpole invariant of the vectorized hot path — for any slab of
valid ``gpu_point`` payloads drawn from the fuzzer's space (all five
dtypes, baseline and optimized points, mixed cases, degenerate size-0/1
slabs), :func:`repro.sim.batch.evaluate_gpu_slab` produces records whose
canonical JSON equals that of
:func:`repro.verify.oracles.scalar_gpu_records`, with the scalar oracle
running on its own machine so it cannot share any memo with the path
under test.
"""

from hypothesis import given, settings, strategies as st

from repro import Machine, ReproConfig
from repro.core.cases import Case
from repro.core.optimized import KernelConfig
from repro.sim.batch import evaluate_gpu_slab
from repro.sweep.fingerprint import canonical_json
from repro.verify.oracles import scalar_gpu_records

_CONFIG = ReproConfig(functional_elements_cap=1 << 12)

# The fuzzer's type pairings (verify/fuzzer.py): same-kind, never
# narrowing, int8 always widening to int64 as in the paper's C2.
_TYPE_PAIRS = (
    ("int8", "int64"),
    ("int32", "int32"),
    ("int32", "int64"),
    ("int64", "int64"),
    ("float32", "float32"),
    ("float32", "float64"),
    ("float64", "float64"),
)

_BASE_ELEMENTS = (1, 2, 3, 17, 255, 256, 1000, 4096)


@st.composite
def gpu_point_payloads(draw):
    """One valid ``(case, config, trials, verify)`` payload."""
    etype, rtype = draw(st.sampled_from(_TYPE_PAIRS))
    if draw(st.booleans()):
        config = None
        v = 1
    else:
        v = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
        # KernelConfig requires powers of two with teams >= v.
        teams = draw(st.sampled_from(
            [t for t in (128, 256, 1024, 4096, 16384, 65536) if t >= v]
        ))
        threads = draw(st.sampled_from([32, 64, 128, 256, 512, 1024]))
        config = KernelConfig(teams=teams, v=v, threads=threads)
    base = draw(st.sampled_from(_BASE_ELEMENTS))
    case = Case(
        name=f"F{etype}_{rtype}_{base * v}",
        element_type=etype,
        result_type=rtype,
        elements=base * v,  # divisible by v by construction
    )
    trials = draw(st.sampled_from([1, 5, 20, 200]))
    verify = draw(st.sampled_from([None, False, True]))
    return (case, config, trials, verify)


def _machines():
    # The differential oracle: an identical machine with its own memos.
    slab = Machine(config=_CONFIG)
    oracle = Machine(
        system=slab.system, calibration=slab.calibration, config=_CONFIG,
    )
    return slab, oracle


class TestSlabEqualsScalar:
    @given(payloads=st.lists(gpu_point_payloads(), min_size=0, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_records_byte_identical(self, payloads):
        slab_machine, oracle = _machines()
        slab_records = evaluate_gpu_slab(slab_machine, payloads)
        oracle_records = scalar_gpu_records(oracle, payloads)
        assert canonical_json(slab_records) == canonical_json(oracle_records)

    @given(payloads=st.lists(gpu_point_payloads(), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_launch_traces_identical(self, payloads):
        slab_machine, oracle = _machines()
        evaluate_gpu_slab(slab_machine, payloads)
        scalar_gpu_records(oracle, payloads)
        assert (
            slab_machine.trace.kernel_launches
            == oracle.trace.kernel_launches
        )

    @given(payload=gpu_point_payloads())
    @settings(max_examples=40, deadline=None)
    def test_singleton_slab(self, payload):
        slab_machine, oracle = _machines()
        [record] = evaluate_gpu_slab(slab_machine, [payload])
        assert canonical_json(record) == canonical_json(
            scalar_gpu_records(oracle, [payload])[0]
        )

    def test_empty_slab(self):
        slab_machine, _ = _machines()
        assert evaluate_gpu_slab(slab_machine, []) == []

    @given(payloads=st.lists(gpu_point_payloads(), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_repeat_evaluation_is_stable(self, payloads):
        # The per-machine value/measure memos must never change results.
        slab_machine, _ = _machines()
        first = evaluate_gpu_slab(slab_machine, payloads)
        second = evaluate_gpu_slab(slab_machine, payloads)
        assert canonical_json(first) == canonical_json(second)
