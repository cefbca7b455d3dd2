"""Regression pins for the non-``+`` downstream contract.

When a reduction identifier other than ``+`` flows through the stack it
changes payload shapes, compile-cache keys and the shared-memory wire
format.  These tests pin every one of those shapes so a refactor cannot
silently change them — sum payloads MUST stay 4-tuples (existing sweep
caches and resumable job directories key on that), and extended ops MUST
append exactly one trailing element.
"""

import numpy as np
import pytest

from repro.core.cases import case_by_name
from repro.core.machine import Machine
from repro.core.optimized import KernelConfig
from repro.core.reduce import OffloadReducer
from repro.jobs.api import JobSpec, parse_job_spec
from repro.service.api import parse_request
from repro.sweep.executor import SweepExecutor
from repro.sweep.shm import (
    pack_gpu_slab_request,
    release_segment,
    response_name,
    unpack_gpu_slab_request,
)


CASE = case_by_name("C1")
CONFIG = KernelConfig(teams=256, v=4, threads=256)


class TestPayloadShapes:
    def test_sum_payloads_stay_4_tuples(self):
        spec = JobSpec(case="C1", teams=(256,), v=(4,), threads=(256,))
        assert all(len(p) == 4 for p in spec.payloads())
        _, payload = parse_request(
            {"experiment": "gpu", "case": "C1", "teams": 256, "v": 4}
        ).payload()
        assert len(payload) == 4

    def test_extended_payloads_append_exactly_the_op(self):
        spec = JobSpec(
            case="C1", teams=(256,), v=(4,), threads=(256,), op="max"
        )
        payload = next(spec.payloads())
        assert len(payload) == 5 and payload[4] == "max"
        assert payload[:4] == next(JobSpec(
            case="C1", teams=(256,), v=(4,), threads=(256,)
        ).payloads())
        _, service_payload = parse_request(
            {"experiment": "gpu", "case": "C1", "teams": 256, "v": 4,
             "op": "max"}
        ).payload()
        assert len(service_payload) == 5 and service_payload[4] == "max"

    def test_executor_builds_the_same_shapes(self, tmp_path):
        machine = Machine()
        ex = SweepExecutor(machine, workers=1, cache=None)
        # Observe the shapes via the public run() path: both must
        # execute, and the op variant must produce a different value
        # for an op whose result differs from the sum.
        sum_rec = ex.gpu_points(CASE, [CONFIG], trials=3, verify=False)[0]
        max_rec = ex.gpu_points(
            CASE, [CONFIG], trials=3, verify=False, op="max"
        )[0]
        assert sum_rec["value"] != max_rec["value"]


class TestSpecDigestStability:
    def test_default_job_spec_digest_is_pinned(self):
        # Part of the on-disk jobs format: a default (sum) spec must
        # digest identically across releases, op field or not.
        assert JobSpec().spec_digest == "15f56b7c11f6c41d"
        assert "op" not in JobSpec().to_dict()

    def test_op_specs_digest_differently(self):
        assert JobSpec(op="max").spec_digest != JobSpec().spec_digest
        assert parse_job_spec({"op": "max"}).op == "max"

    def test_point_digests_unchanged_for_sum(self):
        sum_spec, op_spec = JobSpec(), JobSpec(op="max")
        sum_digest = next(sum_spec.point_digests("m"))
        assert sum_digest != next(op_spec.point_digests("m"))
        # and the sum stream itself is the historical document
        from repro.verify.fuzzer import case_digest

        assert sum_digest == case_digest(
            {
                "kind": "gpu_point", "machine": "m", "case": "C1",
                "teams": 4096, "v": 4, "threads": 256, "trials": 200,
                "verify": False,
            }
        )


class TestShmOpColumn:
    def _roundtrip(self, payloads):
        header = pack_gpu_slab_request(payloads)
        try:
            return unpack_gpu_slab_request(header).payloads()
        finally:
            release_segment(header["shm"])
            release_segment(response_name(header["shm"]))

    def test_sum_roundtrips_to_4_tuples(self):
        out = self._roundtrip([(CASE, CONFIG, 5, False)])
        assert len(out[0]) == 4

    @pytest.mark.parametrize("op", ["min", "max", "argmax", "dot"])
    def test_extended_ops_roundtrip_verbatim(self, op):
        out = self._roundtrip([(CASE, CONFIG, 5, False, op)])
        assert len(out[0]) == 5 and out[0][4] == op

    def test_mixed_slab_preserves_per_point_ops(self):
        payloads = [
            (CASE, CONFIG, 5, False),
            (CASE, CONFIG, 5, False, "max"),
            (CASE, None, 7, True),
            (CASE, CONFIG, 5, False, "dot"),
        ]
        out = self._roundtrip(payloads)
        assert [len(p) for p in out] == [4, 5, 4, 5]
        assert out[1][4] == "max" and out[3][4] == "dot"
        assert out[2][1] is None and out[2][3] is True


class TestCompileCacheKeying:
    def test_non_sum_kernels_get_a_name_suffix(self):
        # The per-identifier name suffix keys the compile cache: a max
        # kernel must never collide with the sum kernel it derives from.
        r = OffloadReducer("int32", 1024, config=CONFIG, identifier="max")
        # launch() appends its own _v{V} suffix after the op suffix
        assert "_max" in r.kernel.name
        assert r.kernel.arrays == 1

    def test_sum_kernel_name_unchanged(self):
        r = OffloadReducer("int32", 1024, config=CONFIG)
        assert not r.kernel.name.endswith("_+")
        assert "_max" not in r.kernel.name

    def test_dot_kernel_declares_two_arrays(self):
        r = OffloadReducer("int32", 1024, config=CONFIG, identifier="dot")
        assert "_dot" in r.kernel.name
        assert r.kernel.arrays == 2
        # input_bytes doubles: the bandwidth denominator must count
        # both streamed operands.
        base = OffloadReducer("int32", 1024, config=CONFIG)
        assert r.kernel.input_bytes == 2 * base.kernel.input_bytes

    def test_dot_reduce_requires_and_uses_second(self):
        r = OffloadReducer("int32", 64, config=None, identifier="dot")
        a = np.arange(64, dtype=np.int32)
        b = np.full(64, 2, dtype=np.int32)
        out = r.reduce(a, second=b, verify=True)
        assert int(out.value) == int(2 * a.sum())
