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

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, ReproConfig
from repro.core.cases import C3, Case
from repro.core.optimized import KernelConfig
from repro.core.timing import TRIALS
from repro.core.tuning import DEFAULT_THREADS, TEAMS_GRID, V_GRID
from repro.gpu.exec_model import _schedule, _thread_starts_key
from repro.sim import batch
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
        slab_records = evaluate_gpu_slab(slab_machine, payloads).records()
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
        [record] = evaluate_gpu_slab(slab_machine, [payload]).records()
        assert canonical_json(record) == canonical_json(
            scalar_gpu_records(oracle, [payload])[0]
        )

    def test_empty_slab(self):
        slab_machine, _ = _machines()
        assert evaluate_gpu_slab(slab_machine, []).records() == []

    @given(payloads=st.lists(gpu_point_payloads(), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_repeat_evaluation_is_stable(self, payloads):
        # The per-machine value memo must never change results.
        slab_machine, _ = _machines()
        first = evaluate_gpu_slab(slab_machine, payloads).records()
        second = evaluate_gpu_slab(slab_machine, payloads).records()
        assert canonical_json(first) == canonical_json(second)


# -- exception parity: the first failing point decides ----------------------

_GPU = Machine(config=_CONFIG).system.gpu
_CAPACITY = _GPU.memory.capacity_bytes


@st.composite
def failing_payloads(draw):
    """One payload the scalar path refuses, of one of five kinds."""
    kind = draw(st.sampled_from(
        ("trials", "divisibility", "thread_limit", "capacity", "dot")))
    verify = draw(st.sampled_from([None, False, True]))
    config = KernelConfig(teams=1024, v=4, threads=256)
    if kind == "trials":
        case, config, _trials, verify = draw(gpu_point_payloads())
        return (case, config, draw(st.sampled_from([0, -1, -200])), verify)
    if kind == "divisibility":
        v = draw(st.sampled_from([2, 4, 32]))
        odd = draw(st.sampled_from([1, 17, 255]))
        case = Case(f"odd{odd}", "int32", "int32", elements=odd)
        return (case, KernelConfig(teams=1024, v=v), 5, verify)
    if kind == "thread_limit":
        case = draw(gpu_point_payloads())[0]
        threads = draw(st.sampled_from(
            [_GPU.max_threads_per_block + 1, 2 * _GPU.max_threads_per_block]))
        return (case, KernelConfig(teams=1024, v=1, threads=threads), 5,
                verify)
    if kind == "capacity":
        # More elements than device memory holds bytes.
        case = Case("huge", "int8", "int64",
                    elements=_CAPACITY + draw(st.sampled_from([1, 1024])))
        return (case, draw(st.sampled_from([None, config])), 5, verify)
    # A dot product maps two arrays: each fits, both do not.
    case = Case("half", "float32", "float32",
                elements=(_CAPACITY * 3 // 4) // 4 // 32 * 32)
    return (case, draw(st.sampled_from([None, config])), 5, verify, "dot")


@st.composite
def failing_slabs(draw):
    """Valid and failing payloads, at least one failing, in any order."""
    points = (draw(st.lists(gpu_point_payloads(), max_size=4))
              + draw(st.lists(failing_payloads(), min_size=1, max_size=3)))
    return draw(st.permutations(points))


class TestExceptionParity:
    @given(payloads=failing_slabs())
    @settings(max_examples=60, deadline=None)
    def test_same_exception_as_the_scalar_path(self, payloads):
        # The slab checks whole columns; when a point fails it must raise
        # what the serial loop raises at its first failing point.
        slab_machine, oracle = _machines()
        with pytest.raises(Exception) as slab_error:
            evaluate_gpu_slab(slab_machine, payloads)
        with pytest.raises(Exception) as scalar_error:
            scalar_gpu_records(oracle, payloads)
        assert type(slab_error.value) is type(scalar_error.value)
        assert str(slab_error.value) == str(scalar_error.value)


# -- float panels: the shared thread level ----------------------------------
#
# A slab computes each float thread level once for all the points whose
# thread starts agree, and runs every point's own team level over it.
# Panels are what share: one case, many configs, repeated points.

_FLOAT_PAIRS = (
    ("float32", "float32"),
    ("float32", "float64"),
    ("float64", "float64"),
)

# An odd cap: a case larger than it ends on a ragged last iteration for
# every V > 1, and once n > teams * threads a team's chunk can split
# unevenly into thread chunks (non-uniform thread starts).
_PANEL_CONFIG = ReproConfig(functional_elements_cap=50001)

# Case sizes, in units of 32 elements so that every V divides them.
_PANEL_BASES = (1, 3, 40, 1000, 1 << 16)

# Non-sum identifiers, with the result type each takes over a float T.
_PANEL_OPS = ("max", "min", "*", "dot", "argmax")


def _panel_machines():
    slab = Machine(config=_PANEL_CONFIG)
    oracle = Machine(
        system=slab.system, calibration=slab.calibration,
        config=_PANEL_CONFIG,
    )
    return slab, oracle


def _panel_case(etype, rtype, base, tag=""):
    return Case(name=f"P{tag}{etype}_{rtype}_{base}", element_type=etype,
                result_type=rtype, elements=base * 32)


@st.composite
def panel_configs(draw):
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        return None  # the baseline kernel
    v = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    teams = draw(st.sampled_from([128, 256, 1024, 65536]))
    threads = draw(st.sampled_from([32, 64, 256, 1024]))
    return KernelConfig(teams=teams, v=v, threads=threads)


_TRIALS = st.sampled_from([1, 5, 200])
_VERIFY = st.sampled_from([None, False, True])


@st.composite
def float_panels(draw):
    """One float case at many configs, with repeats and mixed-in points."""
    etype, rtype = draw(st.sampled_from(_FLOAT_PAIRS))
    base = draw(st.sampled_from(_PANEL_BASES))
    case = _panel_case(etype, rtype, base)
    points = [
        (case, config, draw(_TRIALS), draw(_VERIFY))
        for config in draw(st.lists(panel_configs(), min_size=1,
                                    max_size=10))
    ]
    # Repeats of earlier points, each with its own verify flag.
    for j in draw(st.lists(st.integers(0, len(points) - 1), max_size=4)):
        points.append(points[j][:3] + (draw(_VERIFY),))
    # Integer sums and non-sum identifiers in the same slab.
    for config in draw(st.lists(panel_configs(), max_size=3)):
        op = draw(st.sampled_from(("+",) + _PANEL_OPS))
        if op == "+":
            other = _panel_case("int32", "int64", base, tag="I")
            points.append((other, config, draw(_TRIALS), draw(_VERIFY)))
            continue
        r = "int64" if op == "argmax" else rtype
        other = _panel_case(etype, r, base, tag=op)
        points.append((other, config, draw(_TRIALS), draw(_VERIFY), op))
    return draw(st.permutations(points))


class TestFloatPanels:
    @given(payloads=float_panels())
    @settings(max_examples=60, deadline=None)
    def test_panel_records_and_traces_identical(self, payloads):
        slab_machine, oracle = _panel_machines()
        slab_records = evaluate_gpu_slab(slab_machine, payloads).records()
        oracle_records = scalar_gpu_records(oracle, payloads)
        assert canonical_json(slab_records) == canonical_json(oracle_records)
        assert (
            slab_machine.trace.kernel_launches
            == oracle.trace.kernel_launches
        )

    @pytest.mark.parametrize("etype,rtype", _FLOAT_PAIRS)
    def test_ragged_and_non_uniform_panel(self, etype, rtype):
        # n = 50001 (capped).  At 128 teams of 32 threads each team's 391
        # iterations split into 13-iteration thread chunks: non-uniform
        # starts, and with V = 4 a one-element last iteration.  Three
        # configs share one uniform thread level of 8-element chunks.
        case = _panel_case(etype, rtype, 1 << 16)
        n = _PANEL_CONFIG.functional_elements_cap
        configs = [
            KernelConfig(teams=128, v=1, threads=32),
            KernelConfig(teams=128, v=4, threads=32),
            KernelConfig(teams=256, v=2, threads=64),
            KernelConfig(teams=256, v=4, threads=128),
            KernelConfig(teams=256, v=8, threads=256),
            KernelConfig(teams=65536, v=32, threads=1024),
            None,
        ]
        for config in configs[:2]:
            _t, team_iters, _n, thread_iters, _p = _schedule(
                n, config.teams // config.v, config.threads, config.v)
            assert team_iters % thread_iters
        assert n % 4
        assert len({
            _thread_starts_key(n, c.teams // c.v, c.threads, c.v)
            for c in configs[2:5]
        }) == 1
        payloads = [(case, c, 5, None) for c in configs]
        payloads += [payloads[0][:3] + (False,), payloads[1][:3] + (True,)]
        payloads.append((_panel_case("int32", "int64", 1 << 16, tag="I"),
                         configs[1], 5, True))
        payloads.append((_panel_case(etype, rtype, 1 << 16, tag="max"),
                         configs[0], 5, True, "max"))
        slab_machine, oracle = _panel_machines()
        assert canonical_json(
            evaluate_gpu_slab(slab_machine, payloads).records()
        ) == canonical_json(scalar_gpu_records(oracle, payloads))


class TestSharedThreadLevels:
    @pytest.fixture()
    def counted(self, monkeypatch):
        """Count the slab's calls to the executor's two halves."""
        calls = {"thread": 0, "team": 0}
        real_thread, real_team = batch._thread_level, batch._team_level

        def thread_level(data, kernel, second=None):
            calls["thread"] += 1
            return real_thread(data, kernel, second)

        def team_level(level, kernel):
            calls["team"] += 1
            return real_team(level, kernel)

        monkeypatch.setattr(batch, "_thread_level", thread_level)
        monkeypatch.setattr(batch, "_team_level", team_level)
        return calls

    def test_figure1_c3_panel_computes_13_thread_levels(self, counted):
        # The paper's Figure 1c panel: 60 (teams, V) points at the default
        # cap.  Every point is a distinct value, so one executor run per
        # point would compute 60 thread levels; the slab computes one per
        # distinct thread chunk, which the schedule fixes.
        machine = Machine()
        payloads = [
            (C3, KernelConfig(teams=t, v=v, threads=DEFAULT_THREADS),
             TRIALS, False)
            for t in TEAMS_GRID for v in V_GRID if t >= v
        ]
        assert len(payloads) == 60
        n = machine.functional_elements(C3)
        chunks = set()
        for _case, config, _trials, _verify in payloads:
            _trip, team_iters, _teams, thread_iters, _ = _schedule(
                n, config.teams // config.v, config.threads, config.v)
            assert team_iters % thread_iters == 0  # uniform starts
            chunks.add(thread_iters * config.v)
        assert len(chunks) == 13

        records = evaluate_gpu_slab(machine, payloads).records()
        assert counted["thread"] == len(chunks)
        assert counted["team"] == 60
        oracle = Machine(system=machine.system,
                         calibration=machine.calibration)
        assert canonical_json(records) == canonical_json(
            scalar_gpu_records(oracle, payloads))
        # The value memo replays the panel without another thread level.
        assert evaluate_gpu_slab(machine, payloads).records() == records
        assert counted["thread"] == len(chunks)

    def test_one_thread_level_alive_at_a_time(self, monkeypatch):
        machine = Machine(config=_PANEL_CONFIG)
        case = _panel_case("float32", "float64", 1 << 16)
        payloads = [
            (case, KernelConfig(teams=t, v=v, threads=64), 5, True)
            for t in (128, 1024, 65536) for v in (1, 4, 32)
        ]
        refs = []
        real = batch._thread_level

        def watched(data, kernel, second=None):
            # Every earlier thread-level array is gone before the next
            # one is computed.
            assert all(ref() is None for ref in refs)
            level = real(data, kernel, second)
            refs.append(weakref.ref(level[1]))
            return level

        monkeypatch.setattr(batch, "_thread_level", watched)
        evaluate_gpu_slab(machine, payloads)
        assert len(refs) > 1
        assert all(ref() is None for ref in refs)
        assert all(isinstance(value, np.generic)
                   for value, _verified in machine._slab_value_cache.values())
