"""Zero-copy slab transport: roundtrips, integrity, and leak discipline.

The unit tests pin the transport module itself: a shared-memory segment
must never outlive its slab.  The executor no longer calls it — a
``gpu_point`` is priced in-process, or under a task deadline one point
per task through the pickle pool — so the executor-level classes at the
end run that pooled path and pin that it leaves no segment, starts no
resource tracker, survives a worker crash and a corrupted result, and
falls back to serial pricing when its pool cannot start.  Leak tests
scan ``/dev/shm`` for the module's name prefix directly.
"""

import errno
import glob
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import Machine, ReproConfig
from repro.core.cases import C1, C2, C3
from repro.core.optimized import KernelConfig
from repro.faults import SupervisedWorkerPool, injector
from repro.sim.batch import SlabResult
from repro.sweep import SweepExecutor, shm
from repro.sweep.fingerprint import canonical_json
from repro.telemetry.state import metrics
from repro.verify.oracles import scalar_gpu_records

from ..faults.test_supervisor import _find_seed

_REPO_SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)


@pytest.fixture()
def machine():
    return Machine(config=ReproConfig(functional_elements_cap=1 << 14))


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(injector.FAULTS_ENV, raising=False)
    injector.deactivate()
    yield
    injector.deactivate()


def _leftovers():
    return set(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*"))


PAYLOADS = [
    (C1, None, 200, None),
    (C1, KernelConfig(teams=1024, v=4), 200, False),
    (C2, KernelConfig(teams=1 << 15, v=32, threads=512), 5, True),
    (C3, KernelConfig(teams=128, v=1, threads=64), 1, None),
    (C1, KernelConfig(teams=1024, v=4), 200, False),  # duplicate point
]


def _result(records):
    """The :class:`SlabResult` whose ``records()`` are *records*."""
    return SlabResult(
        np.array([r["bandwidth_gbs"] for r in records], dtype=np.float64),
        np.array([r["elapsed_seconds"] for r in records], dtype=np.float64),
        list(range(len(records))),
        [r["value"] for r in records],
    )


def _pooled(machine):
    """An executor whose ``gpu_point`` stages cross a process boundary:
    a task deadline sends each point to the pool as its own task."""
    return SweepExecutor(machine, workers=2, task_timeout_s=60.0)


def _metric(name, **labels):
    return metrics().value(name, **labels) or 0


class TestRequestRoundtrip:
    def test_payloads_survive_byte_for_byte(self):
        header = shm.pack_gpu_slab_request(PAYLOADS)
        try:
            assert shm.unpack_gpu_slab_request(header).payloads() == PAYLOADS
        finally:
            shm.release_segment(header["shm"])
            shm.release_segment(shm.response_name(header["shm"]))

    def test_distinct_cases_deduplicated(self):
        header = shm.pack_gpu_slab_request(PAYLOADS)
        try:
            assert header["cases"] == [C1, C2, C3]
            assert header["n"] == len(PAYLOADS)
        finally:
            shm.release_segment(header["shm"])
            shm.release_segment(shm.response_name(header["shm"]))

    @pytest.mark.parametrize("count", [0, 1])
    def test_degenerate_slabs(self, count):
        payloads = PAYLOADS[:count]
        header = shm.pack_gpu_slab_request(payloads)
        try:
            assert shm.unpack_gpu_slab_request(header).payloads() == payloads
        finally:
            shm.release_segment(header["shm"])
            shm.release_segment(shm.response_name(header["shm"]))

    def test_verify_tristate_is_preserved(self):
        payloads = [(C1, None, 1, flag) for flag in (None, False, True)]
        header = shm.pack_gpu_slab_request(payloads)
        try:
            unpacked = shm.unpack_gpu_slab_request(header).payloads()
            assert [p[3] for p in unpacked] == [None, False, True]
        finally:
            shm.release_segment(header["shm"])
            shm.release_segment(shm.response_name(header["shm"]))


class TestResponseRoundtrip:
    RECORDS = [
        {"bandwidth_gbs": 1234.5, "elapsed_seconds": 2e-3, "value": -7},
        {"bandwidth_gbs": 0.0, "elapsed_seconds": 1e-9,
         "value": 2**63 - 1},
        {"bandwidth_gbs": 999.25, "elapsed_seconds": 0.5,
         "value": 0.1 + 0.2},
    ]

    def _roundtrip(self, records):
        request = shm.pack_gpu_slab_request([])
        try:
            response = shm.pack_gpu_slab_response(
                request["shm"], _result(records)
            )
            return shm.unpack_gpu_slab_response(response)
        finally:
            shm.release_segment(request["shm"])
            shm.release_segment(shm.response_name(request["shm"]))

    def test_records_survive_byte_for_byte(self):
        out = self._roundtrip(self.RECORDS)
        assert out == self.RECORDS
        # Value types survive exactly: ints stay int, floats stay float.
        assert [type(r["value"]) for r in out] == [int, int, float]
        assert canonical_json(out) == canonical_json(self.RECORDS)

    def test_empty_response(self):
        assert self._roundtrip([]) == []


class TestIntegrity:
    def test_request_corruption_is_detected(self):
        header = shm.pack_gpu_slab_request(PAYLOADS)
        try:
            segment = shm.attach_segment(header["shm"])
            try:
                segment.buf[3] = segment.buf[3] ^ 0xFF
            finally:
                segment.close()
            with pytest.raises(shm.TransportError, match="digest"):
                shm.unpack_gpu_slab_request(header)
        finally:
            shm.release_segment(header["shm"])
            shm.release_segment(shm.response_name(header["shm"]))

    def test_response_corruption_is_detected(self):
        request = shm.pack_gpu_slab_request([])
        try:
            records = [
                {"bandwidth_gbs": 1.0, "elapsed_seconds": 1.0, "value": 1}
            ]
            response = shm.pack_gpu_slab_response(
                request["shm"], _result(records)
            )
            segment = shm.attach_segment(response["shm"])
            try:
                segment.buf[0] = segment.buf[0] ^ 0xFF
            finally:
                segment.close()
            with pytest.raises(shm.TransportError, match="corrupted"):
                shm.unpack_gpu_slab_response(response)
        finally:
            shm.release_segment(request["shm"])
            shm.release_segment(shm.response_name(request["shm"]))

    def test_missing_segment_is_a_transport_error(self):
        with pytest.raises(shm.TransportError, match="does not exist"):
            shm.attach_segment(f"{shm.SEGMENT_PREFIX}no-such-segment")
        header = {"shm": f"{shm.SEGMENT_PREFIX}no-such-segment", "n": 1,
                  "sha256": "0" * 64, "nbytes": 40}
        with pytest.raises(shm.TransportError):
            shm.unpack_gpu_slab_response(header)


class TestLifetime:
    def test_pack_registers_request_and_derived_response(self):
        before = set(shm.owned_segments())
        header = shm.pack_gpu_slab_request(PAYLOADS[:2])
        name = header["shm"]
        try:
            registered = set(shm.owned_segments()) - before
            assert registered == {name, shm.response_name(name)}
        finally:
            shm.release_segment(name)
            shm.release_segment(shm.response_name(name))
        assert set(shm.owned_segments()) == before
        assert not any(name in path for path in _leftovers())

    def test_release_is_idempotent(self):
        header = shm.pack_gpu_slab_request(PAYLOADS[:1])
        shm.release_segment(header["shm"])
        shm.release_segment(header["shm"])  # second release: no error
        shm.release_segment(shm.response_name(header["shm"]))

    def test_unlink_if_exists_reports_existence(self):
        segment = shm.create_segment(64)
        try:
            assert shm.unlink_if_exists(segment.name) is True
            assert shm.unlink_if_exists(segment.name) is False
        finally:
            shm.release_segment(segment.name)

    def test_worker_side_create_heals_a_leftover(self):
        # A crashed previous attempt leaves the response name occupied;
        # the retry's owner=False create must replace it, not fail.
        stale = shm.create_segment(8, name=f"{shm.SEGMENT_PREFIX}heal-test")
        fresh = shm.create_segment(
            64, name=f"{shm.SEGMENT_PREFIX}heal-test", owner=False
        )
        try:
            assert fresh.size >= 64
        finally:
            fresh.close()
            shm.unlink_if_exists(f"{shm.SEGMENT_PREFIX}heal-test")
            shm.release_segment(stale.name)


class TestLeakRegression:
    CONFIGS = [
        None,
        KernelConfig(teams=128, v=1),
        KernelConfig(teams=1024, v=4),
        KernelConfig(teams=1 << 14, v=8, threads=128),
        KernelConfig(teams=1 << 15, v=16, threads=512),
        KernelConfig(teams=65536, v=32),
    ]

    def _serial_records(self, machine):
        payloads = [(C1, c, 5, False) for c in self.CONFIGS]
        fresh = Machine(
            system=machine.system, calibration=machine.calibration,
            config=machine.config,
        )
        return scalar_gpu_records(fresh, payloads)

    def test_pool_slab_run_leaves_no_segments(self, machine):
        before = _leftovers()
        pickled = _metric("sweep.payload_bytes", transport="pickle")
        executor = _pooled(machine)
        try:
            records = executor.gpu_points(
                C1, self.CONFIGS, trials=5, verify=False
            )
        finally:
            executor.close()
        assert _metric("sweep.payload_bytes", transport="pickle") > pickled
        assert [canonical_json(r) for r in records] == [
            canonical_json(r) for r in self._serial_records(machine)
        ]
        assert _leftovers() - before == set()
        assert not any(
            name.startswith(shm.SEGMENT_PREFIX)
            for name in shm.owned_segments()
        )

    def test_crash_at_worker_task_restarts_and_cleans_up(self, machine):
        # Probe 0 crashes the first worker's first point; the supervisor
        # restarts it (generation 2 resumes at probe 2) and the retry
        # completes.  No failure records, no stale segments.
        seed = _find_seed(0.5, [True] + [False] * 8)
        injector.activate(f"seed={seed};worker.task:crash@0.5")
        before = _leftovers()
        executor = _pooled(machine)
        try:
            records = executor.gpu_points(
                C1, self.CONFIGS, trials=5, verify=False
            )
            restarts = executor._pool.restarts
        finally:
            executor.close()
            injector.deactivate()
        assert restarts == 1
        assert not any(r.get("failed") for r in records)
        assert [canonical_json(r) for r in records] == [
            canonical_json(r) for r in self._serial_records(machine)
        ]
        assert _leftovers() - before == set()

    def test_injected_corruption_recomputes_never_collates(self, machine):
        # wrong_result damages probe 0's record after its checksum was
        # taken: the supervisor must detect it and run the point again,
        # so the records stay correct.
        seed = _find_seed(0.5, [True] + [False] * 8)
        injector.activate(f"seed={seed};worker.task:wrong_result@0.5")
        detected = _metric("sweep.pool.wrong_results_detected")
        before = _leftovers()
        executor = _pooled(machine)
        try:
            records = executor.gpu_points(
                C1, self.CONFIGS, trials=5, verify=False
            )
        finally:
            executor.close()
            injector.deactivate()
        assert _metric("sweep.pool.wrong_results_detected") == detected + 1
        assert [canonical_json(r) for r in records] == [
            canonical_json(r) for r in self._serial_records(machine)
        ]
        assert _leftovers() - before == set()


class TestNoResourceTracker:
    # A subprocess, so no earlier test in this one has started a tracker
    # already; the forked pool workers inherit the patched method.
    SCRIPT = textwrap.dedent("""
        import json, os, sys
        from multiprocessing import resource_tracker

        log = sys.argv[1]
        ensure_running = resource_tracker.ResourceTracker.ensure_running

        def logged(self):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\\n")
            return ensure_running(self)

        resource_tracker.ResourceTracker.ensure_running = logged

        from repro import Machine, ReproConfig
        from repro.core.cases import C1
        from repro.core.optimized import KernelConfig
        from repro.sweep import SweepExecutor
        from repro.sweep.fingerprint import canonical_json
        from repro.telemetry.state import metrics

        configs = [None, KernelConfig(teams=1024, v=4),
                   KernelConfig(teams=1 << 14, v=8, threads=128)]

        def run(**kwargs):
            machine = Machine(
                config=ReproConfig(functional_elements_cap=1 << 14))
            executor = SweepExecutor(machine, **kwargs)
            try:
                records = executor.gpu_points(
                    C1, configs, trials=5, verify=False)
            finally:
                executor.close()
            return canonical_json(records), executor.stats.mode

        pooled, mode = run(workers=2, task_timeout_s=60.0)
        pickled = metrics().value("sweep.payload_bytes", transport="pickle")
        serial, _ = run(workers=1)
        print(json.dumps({"mode": mode, "same": pooled == serial,
                          "pickled": bool(pickled)}))
    """)

    def test_pooled_run_starts_no_resource_tracker(self, tmp_path):
        log = tmp_path / "ensure_running.log"
        log.write_text("")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = (
            str(_REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        before = _leftovers()
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(log)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report == {"mode": "processes(2)", "same": True,
                          "pickled": True}
        assert log.read_text() == "", "a process started a resource tracker"
        assert _leftovers() - before == set()


class TestPoolUnavailableFallback:
    def test_pool_that_cannot_start_prices_serially(
        self, machine, monkeypatch
    ):
        # The first worker starts, the second cannot be forked: the
        # executor must stop the first, drop its pool and price every
        # point serially.
        real = SupervisedWorkerPool._spawn
        started = []

        def fork_fails_after_one(pool, slot):
            if started:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            handle = real(pool, slot)
            started.append(handle.proc)
            return handle

        monkeypatch.setattr(SupervisedWorkerPool, "_spawn",
                            fork_fails_after_one)
        configs = TestLeakRegression.CONFIGS
        before = _leftovers()
        children = set(multiprocessing.active_children())
        executor = _pooled(machine)
        try:
            records = executor.gpu_points(C1, configs, trials=5,
                                          verify=False)
        finally:
            mode = executor.stats.mode
            pool = executor._pool
            executor.close()
        assert started, "no worker was started before the failure"
        assert mode == "serial (pool unavailable)"
        assert pool is None
        assert not started[0].is_alive()
        assert set(multiprocessing.active_children()) <= children
        assert [canonical_json(r) for r in records] == [
            canonical_json(r)
            for r in TestLeakRegression()._serial_records(machine)
        ]
        assert _leftovers() - before == set()
