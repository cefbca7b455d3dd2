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

import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, ReproConfig, VerificationError
from repro.core.cases import C3, Case
from repro.core.optimized import KernelConfig
from repro.core.timing import TRIALS
from repro.core.tuning import DEFAULT_THREADS, TEAMS_GRID, V_GRID
from repro.gpu.exec_model import _schedule, _thread_starts_key
from repro.sim import batch
from repro.sim.batch import evaluate_gpu_slab
from repro.sim.values import LEVEL_BUDGET_BYTES, LEVEL_CAP_BYTES
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

    @given(payloads=float_panels(), sizes=st.lists(
        st.sampled_from((1, 1, 1, 2, 3)), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_panel_split_over_many_calls(self, payloads, sizes):
        # The same panels, priced by many one-point and few-point calls
        # on one machine: later calls read the values, references and
        # thread levels that earlier calls left in its value layer.
        slab_machine, oracle = _panel_machines()
        records, start = [], 0
        for size in sizes * len(payloads):
            if start >= len(payloads):
                break
            chunk = payloads[start:start + size]
            records += evaluate_gpu_slab(slab_machine, chunk).records()
            start += size
        oracle_records = scalar_gpu_records(oracle, payloads)
        assert canonical_json(records) == canonical_json(oracle_records)
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


def _figure1c_payloads():
    """The paper's Figure 1c panel: C3 at 60 (teams, V) points."""
    return [
        (C3, KernelConfig(teams=t, v=v, threads=DEFAULT_THREADS), TRIALS,
         False)
        for t in TEAMS_GRID for v in V_GRID if t >= v
    ]


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
        payloads = _figure1c_payloads()
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
        # The value layer replays the panel without another thread level.
        assert evaluate_gpu_slab(machine, payloads).records() == records
        assert counted["thread"] == len(chunks)

    def test_one_point_calls_compute_each_kept_level_once(self, monkeypatch):
        # The same Figure 1c panel, one point per call: the value layer
        # serves every level it kept to later calls, so each kept level
        # is computed once; a level it may not keep is computed again.
        machine = Machine()
        payloads = _figure1c_payloads()
        computed = {}
        real = batch._thread_level

        def counted(data, kernel, second=None):
            level = real(data, kernel, second)
            geometry = kernel.geometry
            key = _thread_starts_key(data.size, geometry.grid,
                                     geometry.block,
                                     kernel.elements_per_iteration)
            keepable = (level[1].nbytes <= LEVEL_CAP_BYTES
                        and not np.may_share_memory(level[1], data))
            calls, _ = computed.get(key, (0, keepable))
            computed[key] = (calls + 1, keepable)
            return level

        monkeypatch.setattr(batch, "_thread_level", counted)
        records = [evaluate_gpu_slab(machine, [p]).records()[0]
                   for p in payloads]
        assert len(computed) == 13
        kept = {key: calls for key, (calls, keepable) in computed.items()
                if keepable}
        assert kept and all(calls == 1 for calls in kept.values())
        # Most of the panel's points read a kept level.
        assert sum(calls for calls, _ in computed.values()) < 60
        counts = machine.values.counts()
        assert counts["level_evictions"] == 0
        assert counts["levels"] == len(kept)
        oracle = Machine(system=machine.system,
                         calibration=machine.calibration)
        assert canonical_json(records) == canonical_json(
            scalar_gpu_records(oracle, payloads))

    def test_kept_levels_stay_within_their_bounds(self, monkeypatch):
        # 1 Mi float32 elements summed in float64: a level of 8-element
        # thread chunks owns exactly LEVEL_CAP_BYTES, smaller chunks own
        # more.  Five identifiers keep five such levels, one more than
        # the budget holds, so the first is evicted.
        machine = Machine(config=ReproConfig(functional_elements_cap=1 << 20))
        configs = [
            KernelConfig(teams=1024, v=1, threads=1024),  # 1-element chunks
            KernelConfig(teams=1024, v=1, threads=512),   # 2-element chunks
            KernelConfig(teams=1024, v=1, threads=128),   # 8-element chunks
            KernelConfig(teams=1024, v=2, threads=256),   # 8, shared
        ]
        layer = machine.values
        levels = []
        real = batch._thread_level

        def watched(data, kernel, second=None):
            # A level over the cap is gone before the next one is
            # computed, in this call or an earlier one.
            assert all(ref() is None for ref, size in levels
                       if size > LEVEL_CAP_BYTES)
            level = real(data, kernel, second)
            levels.append((weakref.ref(level[1]), level[1].nbytes))
            return level

        monkeypatch.setattr(batch, "_thread_level", watched)
        payloads = []
        for op in ("+", "max", "min", "*", "-"):
            case = _panel_case("float32", "float64", 1 << 15, tag=op)
            points = [(case, config, 5, True, op) for config in configs]
            evaluate_gpu_slab(machine, points[:2])
            for point in points[2:]:
                evaluate_gpu_slab(machine, [point])
                assert layer.counts()["level_bytes"] <= LEVEL_BUDGET_BYTES
            payloads += points
        counts = layer.counts()
        assert counts["level_evictions"] == 1
        assert counts["levels"] == 4
        assert counts["level_hits"] == 5  # each identifier's shared point
        assert counts["level_bytes"] == 4 * LEVEL_CAP_BYTES
        kept = [level for level, _size in layer._levels.values()]
        assert all(not partials.flags.writeable
                   for _ufunc, partials, _n in kept)
        # Every level the layer does not hold, the evicted one included,
        # has been freed.
        held = {id(partials) for _ufunc, partials, _n in kept}
        assert len(levels) == 15
        assert all(ref() is None or id(ref()) in held for ref, _ in levels)
        assert sum(ref() is not None for ref, _ in levels) == 4
        assert all(isinstance(value, np.generic)
                   for value in layer._values.values())
        oracle = Machine(system=machine.system,
                         calibration=machine.calibration,
                         config=machine.config)
        assert canonical_json(
            evaluate_gpu_slab(machine, payloads).records()
        ) == canonical_json(scalar_gpu_records(oracle, payloads))

    def test_a_level_that_is_the_workload_is_not_kept(self):
        # One element per thread and T == R: the partials are the
        # workload array itself, so keeping them would only spend the
        # budget.  Widened to float64 they are a copy, and kept.
        machine = Machine(config=_CONFIG)
        config = KernelConfig(teams=4096, v=1, threads=32)
        for rtype in ("float32", "float64"):
            case = _panel_case("float32", rtype, 1 << 7, tag="one")
            evaluate_gpu_slab(machine, [(case, config, 5, True)])
        counts = machine.values.counts()
        assert counts["level_misses"] == 2
        assert counts["levels"] == 1
        assert counts["level_bytes"] == 8 * _CONFIG.functional_elements_cap

    def test_a_hit_cannot_pass_a_wrong_value(self, monkeypatch):
        # max over floats verifies exactly, so one ulp is a mismatch.
        # These two points share one thread level of 8-element chunks.
        machine = Machine(config=_PANEL_CONFIG)
        case = _panel_case("float32", "float64", 1 << 16, tag="max")
        first, second = [
            (case, KernelConfig(teams=256, v=v, threads=threads), 5, True,
             "max")
            for v, threads in ((2, 64), (4, 128))
        ]
        evaluate_gpu_slab(machine, [first])
        before = machine.values.counts()
        real = batch._team_level
        monkeypatch.setattr(
            batch, "_team_level",
            lambda level, kernel: np.nextafter(real(level, kernel), np.inf))
        # The thread level and the reference are both hits.
        with pytest.raises(VerificationError):
            evaluate_gpu_slab(machine, [second])
        after = machine.values.counts()
        assert after["level_hits"] == before["level_hits"] + 1
        assert after["reference_hits"] == before["reference_hits"] + 1
        # The rejected value was not stored; an unverified call stores
        # it, and a verifying call that hits it must still reject it.
        assert after["values"] == before["values"]
        evaluate_gpu_slab(machine, [second[:3] + (False, "max")])
        monkeypatch.setattr(batch, "_team_level", real)
        with pytest.raises(VerificationError):
            evaluate_gpu_slab(machine, [second])
        assert machine.values.counts()["value_hits"] == 1

    def test_threads_sharing_a_machine_match_the_oracle(self):
        # Four threads price overlapping float panels, one or two points
        # a call, on one machine whose kept levels overflow the budget.
        machine = Machine(config=ReproConfig(functional_elements_cap=1 << 18))
        payloads = [
            (_panel_case(etype, rtype, 1 << 13, tag=op), config, 5, True, op)
            for etype, rtype in (("float32", "float64"),
                                 ("float64", "float64"))
            for op in ("+", "max", "min", "*")
            for config in (KernelConfig(teams=256, v=1, threads=512),
                           KernelConfig(teams=512, v=2, threads=256),
                           KernelConfig(teams=1024, v=4, threads=64))
        ]
        oracle = Machine(system=machine.system,
                         calibration=machine.calibration,
                         config=machine.config)
        expected = dict(zip(payloads, map(canonical_json,
                                          scalar_gpu_records(oracle,
                                                             payloads))))
        orders = [payloads[k:] + payloads[:k] for k in (0, 5, 11, 17)]
        orders[1].reverse()
        results = [None] * len(orders)

        def price(i):
            order, out = orders[i], []
            for j in range(0, len(order), 1 + i % 2):
                chunk = order[j:j + 1 + i % 2]
                out += zip(chunk, evaluate_gpu_slab(machine, chunk).records())
            results[i] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=price, args=(i,))
                       for i in range(len(orders))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in results:
            assert len(out) == len(payloads)
            assert all(canonical_json(record) == expected[point]
                       for point, record in out)
        counts = machine.values.counts()
        assert counts["level_evictions"] > 0
        assert counts["level_bytes"] == sum(
            size for _level, size in machine.values._levels.values())
        assert counts["level_bytes"] <= LEVEL_BUDGET_BYTES
