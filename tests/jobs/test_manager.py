"""Job lifecycle: run_job's state machine and the async JobManager."""

import json
import threading

import pytest

from repro.errors import SpecError
from repro.faults import injector
from repro.jobs import (
    JobManager,
    JobSpec,
    load_job_spec,
    read_checkpoint,
    read_state,
    run_job,
    write_checkpoint,
)
from repro.jobs.checkpoint import CHECKPOINT_BYTES
from repro.jobs.store import ResultStore, read_json
from repro.sweep.executor import SweepExecutor

#: 12 points over 3 shards with 3 checkpoint intervals.
SPEC = JobSpec(
    case="C1", teams=(64, 128, 256), v=(2, 4), threads=(32, 64),
    trials=3, checkpoint_interval=4, shard_records=5,
)


@pytest.fixture()
def executor(machine):
    ex = SweepExecutor(machine, workers=1, cache=None)
    yield ex
    ex.close()


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    monkeypatch.delenv(injector.FAULTS_ENV, raising=False)
    injector.deactivate()
    yield
    injector.deactivate()


def _job_bytes(directory):
    """The byte-identity surface: manifest + every shard."""
    out = {"manifest.json": (directory / "manifest.json").read_bytes()}
    for path in sorted((directory / "shards").iterdir()):
        out[path.name] = path.read_bytes()
    return out


class TestRunJob:
    def test_runs_to_done(self, tmp_path, executor):
        states = []
        state = run_job(
            tmp_path, SPEC, executor,
            progress=lambda done, st: states.append(st),
        )
        assert state["state"] == "DONE"
        assert state["points_done"] == state["points_total"] == 12
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["complete"] is True
        assert manifest["points_done"] == 12
        assert len(manifest["shards"]) == 3
        checkpoint = read_checkpoint(tmp_path)
        assert checkpoint["points_done"] == 12
        assert states[0] == "RUNNING" and states[-1] == "DONE"
        assert "CHECKPOINTED" in states

    def test_done_is_idempotent(self, tmp_path, executor):
        run_job(tmp_path, SPEC, executor)
        before = _job_bytes(tmp_path)
        state = run_job(tmp_path, SPEC, executor)
        assert state["state"] == "DONE"
        assert _job_bytes(tmp_path) == before

    def test_interrupt_resume_is_byte_identical(self, tmp_path, executor):
        run_job(tmp_path / "single", SPEC, executor)
        paused = run_job(tmp_path / "resumed", SPEC, executor, max_points=5)
        assert paused["state"] == "CHECKPOINTED"
        assert 0 < paused["points_done"] < 12
        resumed = run_job(tmp_path / "resumed", SPEC, executor)
        assert resumed["state"] == "DONE"
        assert _job_bytes(tmp_path / "resumed") == \
            _job_bytes(tmp_path / "single")

    def test_resume_from_the_older_checkpoint_layout(
        self, tmp_path, executor
    ):
        # A directory paused by code that renamed its checkpoint into
        # place: no checksum, no padding.
        run_job(tmp_path / "single", SPEC, executor)
        run_job(tmp_path / "resumed", SPEC, executor, max_points=5)
        path = tmp_path / "resumed" / "checkpoint.json"
        doc = read_checkpoint(tmp_path / "resumed")
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        resumed = run_job(tmp_path / "resumed", SPEC, executor)
        assert resumed["state"] == "DONE"
        assert _job_bytes(tmp_path / "resumed") == \
            _job_bytes(tmp_path / "single")
        assert path.stat().st_size == CHECKPOINT_BYTES

    def test_cancel_event_stops_at_checkpoint(self, tmp_path, executor):
        event = threading.Event()
        event.set()
        state = run_job(tmp_path, SPEC, executor, cancel_event=event)
        assert state["state"] == "CANCELLED"
        assert 0 < state["points_done"] < 12
        # The durable prefix stays resumable once the event clears.
        final = run_job(tmp_path, SPEC, executor,
                        cancel_event=threading.Event())
        assert final["state"] == "DONE"

    def test_directory_is_spec_scoped(self, tmp_path, executor):
        run_job(tmp_path, SPEC, executor, max_points=4)
        other = JobSpec(case="C2", teams=(64,), v=(2,), threads=(32,))
        with pytest.raises(SpecError, match="different job"):
            run_job(tmp_path, other, executor)
        assert load_job_spec(tmp_path) == SPEC

    def test_store_behind_checkpoint_refuses_resume(
        self, tmp_path, executor
    ):
        run_job(tmp_path, SPEC, executor, max_points=4)
        done = read_state(tmp_path)["points_done"]
        fp = executor.machine_fingerprint
        write_checkpoint(
            tmp_path, SPEC.job_id(fp), SPEC.spec_digest,
            SPEC.points_digest(fp), done + 3, 12,
        )
        with pytest.raises(SpecError, match="behind the checkpoint"):
            run_job(tmp_path, SPEC, executor)

    def test_injected_point_failure_fails_the_job(
        self, tmp_path, executor
    ):
        injector.activate("seed=1;job.point:fail:after=6")
        with pytest.raises(Exception, match="injected job.point"):
            run_job(tmp_path, SPEC, executor)
        state = read_state(tmp_path)
        assert state["state"] == "FAILED"
        assert state["error"]
        # The failed point was never appended; resume retries it.
        injector.deactivate()
        final = run_job(tmp_path, SPEC, executor)
        assert final["state"] == "DONE"
        assert _job_bytes(tmp_path) is not None


class TestJobManager:
    def _manager(self, tmp_path, machine, **kwargs):
        return JobManager(tmp_path / "jobs", machine, **kwargs)

    def test_submit_runs_to_done(self, tmp_path, machine):
        manager = self._manager(tmp_path, machine)
        doc = manager.submit(SPEC)
        assert doc["points_total"] == 12
        final = manager.wait(doc["id"], timeout_s=60)
        assert final["state"] == "DONE"
        assert final["points_done"] == 12
        assert final["error"] is None

    def test_submit_is_idempotent(self, tmp_path, machine):
        manager = self._manager(tmp_path, machine)
        first = manager.submit(SPEC)
        manager.wait(first["id"], timeout_s=60)
        again = manager.submit(SPEC)
        assert again["id"] == first["id"]
        assert again["state"] == "DONE"

    def test_stream_returns_all_records(self, tmp_path, machine):
        manager = self._manager(tmp_path, machine)
        doc = manager.submit(SPEC)
        manager.wait(doc["id"], timeout_s=60)
        data = manager.stream(doc["id"], offset=0)
        assert data.count(b"\n") == 12
        assert manager.stream(doc["id"], offset=10).count(b"\n") == 2

    def test_live_stream_follows_every_checkpoint(self, tmp_path, machine):
        import time

        # Hold the job live after its second checkpoint (8 of 12
        # points): each later point stalls 0.5 s before it is appended.
        injector.activate("seed=1;job.point:slow:after=8:delay=0.5")
        manager = self._manager(tmp_path, machine)
        doc = manager.submit(SPEC)
        directory = manager.directory_for(doc["id"])
        deadline = time.monotonic() + 60
        while True:
            ckpt = read_checkpoint(directory)
            if ckpt is not None and ckpt["points_done"] >= 8:
                break
            assert time.monotonic() < deadline, "no second checkpoint"
            time.sleep(0.005)
        data = manager.stream(doc["id"], offset=0)
        live = manager.get(doc["id"])["state"]
        assert live not in ("DONE", "FAILED", "CANCELLED")
        # The state document still says 4 (it records transitions only);
        # the stream must follow the checkpoint's durable claim.
        assert read_state(directory)["points_done"] == 4
        assert data.count(b"\n") == 8
        final = manager.wait(doc["id"], timeout_s=60)
        assert final["state"] == "DONE"
        assert manager.stream(doc["id"], offset=0).count(b"\n") == 12

    def test_unknown_job_is_none(self, tmp_path, machine):
        manager = self._manager(tmp_path, machine)
        assert manager.get("jdeadbeef") is None
        assert manager.cancel("jdeadbeef") is None
        assert manager.resume("jdeadbeef") is None
        assert manager.stream("jdeadbeef", 0) is None

    def test_fresh_manager_recovers_disk_state(self, tmp_path, machine):
        manager = self._manager(tmp_path, machine)
        doc = manager.submit(SPEC)
        manager.wait(doc["id"], timeout_s=60)
        fresh = self._manager(tmp_path, machine)
        assert fresh.get(doc["id"])["state"] == "DONE"
        assert [j["id"] for j in fresh.list_jobs()] == [doc["id"]]

    def test_dead_running_job_reads_checkpointed(self, tmp_path, machine):
        manager = self._manager(tmp_path, machine)
        doc = manager.submit(SPEC)
        manager.wait(doc["id"], timeout_s=60)
        # Forge the state a SIGKILLed runner leaves behind.
        directory = manager.directory_for(doc["id"])
        state = read_json(directory / "state.json")
        state["state"] = "RUNNING"
        state["points_done"] = 8
        from repro.jobs.store import atomic_write_json

        atomic_write_json(directory / "state.json", state)
        fresh = self._manager(tmp_path, machine)
        assert fresh.get(doc["id"])["state"] == "CHECKPOINTED"

    def test_foreign_dead_running_is_persisted_as_checkpointed(
        self, tmp_path, machine
    ):
        from repro.jobs.store import atomic_write_json

        manager = self._manager(tmp_path, machine)
        doc = manager.submit(SPEC)
        manager.wait(doc["id"], timeout_s=60)
        directory = manager.directory_for(doc["id"])
        state = read_json(directory / "state.json")
        state["state"] = "RUNNING"
        state["points_done"] = 8
        state["pid"] = 999_999_999  # a pid that cannot be ours
        atomic_write_json(directory / "state.json", state)
        fresh = self._manager(tmp_path, machine)
        assert fresh.get(doc["id"])["state"] == "CHECKPOINTED"
        # The conversion is durable: the dead owner can never rewrite
        # its own stale RUNNING, so the recovering manager must.
        assert read_state(directory)["state"] == "CHECKPOINTED"

    def test_own_pid_running_is_not_rewritten_on_disk(
        self, tmp_path, machine
    ):
        import os

        from repro.jobs.store import atomic_write_json

        manager = self._manager(tmp_path, machine)
        doc = manager.submit(SPEC)
        manager.wait(doc["id"], timeout_s=60)
        directory = manager.directory_for(doc["id"])
        state = read_json(directory / "state.json")
        state["state"] = "RUNNING"
        state["pid"] = os.getpid()
        atomic_write_json(directory / "state.json", state)
        fresh = self._manager(tmp_path, machine)
        assert fresh.get(doc["id"])["state"] == "CHECKPOINTED"
        # Same process: the runner thread may still be mid-write, so
        # recovery must not race it on disk.
        assert read_state(directory)["state"] == "RUNNING"

    def test_resume_completes_interrupted_directory(
        self, tmp_path, machine, executor
    ):
        manager = self._manager(tmp_path, machine)
        job_id = SPEC.job_id(manager.machine_fingerprint)
        run_job(manager.directory_for(job_id), SPEC, executor,
                max_points=4)
        doc = manager.resume(job_id)
        assert doc is not None
        final = manager.wait(job_id, timeout_s=60)
        assert final["state"] == "DONE"
        assert final["points_done"] == 12

    def test_cancel_queued_job(self, tmp_path, machine):
        manager = self._manager(tmp_path, machine, max_running=1)
        slow = JobSpec(
            case="C1", teams=tuple(2 ** k for k in range(6, 14)),
            v=(2, 4), threads=(32, 64, 128), trials=5,
            checkpoint_interval=8, shard_records=64,
        )
        first = manager.submit(slow)
        queued = manager.submit(SPEC)
        doc = manager.cancel(queued["id"])
        assert doc["state"] == "CANCELLED"
        manager.cancel(first["id"])
        manager.wait(first["id"], timeout_s=60)
        manager.shutdown(timeout_s=30)

    def test_shutdown_leaves_jobs_resumable(self, tmp_path, machine):
        manager = self._manager(tmp_path, machine)
        doc = manager.submit(SPEC)
        manager.shutdown(timeout_s=30)
        state = manager.get(doc["id"])["state"]
        assert state in ("PENDING", "CHECKPOINTED", "CANCELLED", "DONE")
        fresh = self._manager(tmp_path, machine)
        fresh.resume(doc["id"])
        final = fresh.wait(doc["id"], timeout_s=60)
        assert final["state"] == "DONE"
