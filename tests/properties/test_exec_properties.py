"""Property-based tests on the executor's chunking helper and schedule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.gpu.exec_model import execute_reduction, thread_chunk_starts
from repro.gpu.kernels import ReductionKernel
from repro.openmp.reduction_ops import (
    ALL_REDUCTION_IDENTIFIERS, REDUCTION_OPS, required_arrays,
)
from repro.openmp.runtime import LaunchGeometry

params = st.tuples(
    st.integers(min_value=1, max_value=200_000),   # n elements
    st.integers(min_value=1, max_value=1 << 20),   # grid
    st.sampled_from([32, 64, 128, 256]),           # block
    st.sampled_from([1, 2, 4, 8, 16, 32]),         # v
)


class TestChunkStartsProperties:
    @given(p=params)
    @settings(max_examples=200, deadline=None)
    def test_starts_sorted_unique_in_range(self, p):
        n, grid, block, v = p
        starts, team_starts = thread_chunk_starts(n, grid, block, v)
        assert starts[0] == 0
        assert np.all(np.diff(starts) > 0)
        assert starts[-1] < n
        # reduceat over these boundaries covers [0, n) exactly once:
        # consecutive starts partition the array.
        assert np.all(starts % v == 0)

    @given(p=params)
    @settings(max_examples=200, deadline=None)
    def test_team_starts_index_into_thread_starts(self, p):
        n, grid, block, v = p
        starts, team_starts = thread_chunk_starts(n, grid, block, v)
        assert team_starts[0] == 0
        assert np.all(np.diff(team_starts) >= 0)
        assert team_starts[-1] < len(starts)

    @given(p=params, seed=st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_reduceat_over_chunks_is_total(self, p, seed):
        n, grid, block, v = p
        data = np.random.default_rng(seed).integers(
            -50, 50, size=n
        ).astype(np.int64)
        starts, _ = thread_chunk_starts(n, grid, block, v)
        partials = np.add.reduceat(data, starts)
        assert partials.sum() == data.sum()


# -- reference: the searchsorted schedule and an always-two-level executor --

def _reference_chunk_starts(n_elements, grid, block, v):
    """Materialize every thread start, then search for each team's first."""
    if n_elements <= 0:
        raise ValueError(f"n_elements must be positive, got {n_elements}")
    trip = -(-n_elements // v)
    team_iters = -(-trip // grid)
    n_active_teams = -(-trip // team_iters)
    thread_iters = -(-team_iters // block)
    per_team = np.arange(0, team_iters, thread_iters, dtype=np.int64)
    starts_iter = (
        np.arange(n_active_teams, dtype=np.int64)[:, None] * team_iters
        + per_team[None, :]
    ).ravel()
    starts_iter = starts_iter[starts_iter < trip]
    team_first_iter = np.arange(n_active_teams, dtype=np.int64) * team_iters
    team_starts = np.searchsorted(starts_iter, team_first_iter)
    return starts_iter * v, team_starts


_REF_UFUNCS = {
    "+": np.add, "-": np.add, "*": np.multiply,
    "max": np.maximum, "min": np.minimum,
    "&": np.bitwise_and, "|": np.bitwise_or, "^": np.bitwise_xor,
    "&&": np.minimum, "||": np.maximum, "dot": np.add,
}


def _reference_execute(data, kernel, second=None):
    """Thread-level then team-level ``reduceat`` on every geometry."""
    rtype = kernel.result_type.numpy
    ident = kernel.identifier
    if ident == "argmax":
        return rtype.type(int(np.argmax(data)))
    ufunc = _REF_UFUNCS[ident]
    if ident == "dot":
        values = (data.astype(rtype, copy=False)
                  * second.astype(rtype, copy=False))
    elif ident in ("&&", "||"):
        values = (data != 0).astype(rtype)
    else:
        values = data
    thread_starts, team_starts = _reference_chunk_starts(
        values.size, kernel.geometry.grid, kernel.geometry.block,
        kernel.elements_per_iteration,
    )
    partials = ufunc.reduceat(values, thread_starts, dtype=rtype)
    if team_starts.size > 1:
        team_sums = ufunc.reduceat(partials, team_starts, dtype=rtype)
    else:
        team_sums = partials if partials.size == 1 else np.asarray(
            [ufunc.reduce(partials, dtype=rtype)], dtype=rtype
        )
    return rtype.type(ufunc.reduce(team_sums, dtype=rtype))


_TYPE_PAIRS = (("int32", "int32"), ("int8", "int64"),
               ("float32", "float32"), ("float64", "float64"))


def _op_type_pairs():
    pairs = []
    for ident in ALL_REDUCTION_IDENTIFIERS:
        for etype, rtype in _TYPE_PAIRS:
            if ident == "argmax":
                rtype = "int64"
            elif (ident in REDUCTION_OPS and REDUCTION_OPS[ident].integer_only
                  and etype.startswith("float")):
                continue
            pairs.append((ident, etype, rtype))
    return pairs


OP_TYPE_PAIRS = _op_type_pairs()

# Named shapes, as (n, grid, block, v), each pinning a schedule property.
GEOMETRIES = {
    # The paper's baseline: the default grid M/128 of the declared size
    # exceeds the capped trip count, so every team runs one iteration.
    "grid-over-trip": (1000, 4096, 128, 1),
    "block-over-team-iters": (1000, 8, 256, 1),   # one iteration per thread
    "ragged-thread-split": (1000, 4, 32, 1),      # team_iters 250 % 8 != 0
    "ragged-last-v": (1001, 16, 32, 4),           # n % V != 0
    "single-team": (1000, 1, 64, 2),
    "single-team-single-thread": (5, 1, 1, 8),
    "single-element": (1, 7, 32, 4),
}


def _kernel(ident, etype, rtype, grid, block, v):
    return ReductionKernel(
        name="k",
        geometry=LaunchGeometry(grid=grid, block=block, from_clause=True),
        elements=v * 4096,
        elements_per_iteration=v,
        element_type=etype,
        result_type=rtype,
        identifier=ident,
        arrays=required_arrays(ident),
    )


_SPECIAL_FLOATS = (-0.0, 0.0, np.nan, np.inf, -np.inf)


def _seeded_array(etype, n, fill, seed):
    """Integers over the full range; floats plain, salted with specials,
    or all negative zeros."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(etype)
    if dtype.kind == "i":
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, size=n,
                            endpoint=True).astype(dtype)
    if fill == "negzero":
        return np.full(n, -0.0, dtype=dtype)
    x = (rng.standard_normal(n) * 1e3).astype(dtype)
    if fill == "specials":
        at = rng.random(n) < 0.02
        x[at] = rng.choice(_SPECIAL_FLOATS, size=int(at.sum()))
    return x


def _elements(etype):
    dtype = np.dtype(etype)
    if dtype.kind == "i":
        info = np.iinfo(dtype)
        return st.integers(min_value=int(info.min), max_value=int(info.max))
    return st.one_of(
        st.sampled_from(_SPECIAL_FLOATS),
        st.floats(width=dtype.itemsize * 8, allow_nan=True,
                  allow_infinity=True),
    )


def _assert_same_result(ident, etype, rtype, shape, x, second):
    n, grid, block, v = shape
    kernel = _kernel(ident, etype, rtype, grid, block, v)
    with np.errstate(all="ignore"):
        got = execute_reduction(x, kernel, second)
        want = _reference_execute(x, kernel, second)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (got, want)


geometries = st.tuples(
    st.integers(min_value=1, max_value=3000),          # n elements
    st.integers(min_value=1, max_value=4096),          # grid
    st.sampled_from([1, 3, 32, 128, 256]),             # block
    st.sampled_from([1, 2, 3, 4, 8, 32]),              # v
)


class TestClosedFormMatchesSearchsorted:
    """The closed-form schedule equals the searchsorted one, bit for bit."""

    @staticmethod
    def _assert_starts_equal(n, grid, block, v):
        got = thread_chunk_starts(n, grid, block, v)
        want = _reference_chunk_starts(n, grid, block, v)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("shape", list(GEOMETRIES.values()),
                             ids=list(GEOMETRIES))
    def test_chunk_starts_on_named_shapes(self, shape):
        self._assert_starts_equal(*shape)

    @given(p=geometries)
    @settings(max_examples=300, deadline=None)
    def test_chunk_starts(self, p):
        self._assert_starts_equal(*p)

    @pytest.mark.parametrize("shape", list(GEOMETRIES.values()),
                             ids=list(GEOMETRIES))
    @pytest.mark.parametrize("ident,etype,rtype,fill", [
        (*op, fill) for op in OP_TYPE_PAIRS
        for fill in (("plain", "specials", "negzero")
                     if op[1].startswith("float") else ("plain",))
    ])
    def test_execute_on_named_shapes(self, ident, etype, rtype, fill, shape):
        n = shape[0]
        x = _seeded_array(etype, n, fill, seed=n)
        second = (_seeded_array(etype, n, fill, seed=n + 1)
                  if ident == "dot" else None)
        _assert_same_result(ident, etype, rtype, shape, x, second)

    @given(data=st.data(), shape=geometries,
           op=st.sampled_from(OP_TYPE_PAIRS))
    @settings(max_examples=300, deadline=None)
    def test_execute(self, data, shape, op):
        ident, etype, rtype = op
        arrays = hnp.arrays(np.dtype(etype), shape[0],
                            elements=_elements(etype))
        x = data.draw(arrays)
        second = data.draw(arrays) if ident == "dot" else None
        _assert_same_result(ident, etype, rtype, shape, x, second)
