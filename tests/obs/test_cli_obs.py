"""CLI surfaces: ``repro slo check`` exit contract, ``repro obs blackbox``,
and the SIGTERM flight dump of the long-running commands."""

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.flight import FlightRecorder
from repro.service import ReductionService, ServiceHTTPServer, ServiceSettings
from repro.sweep.executor import SweepExecutor
from repro.sweep.result_cache import ResultCache
from repro.telemetry.metrics import MetricsRegistry


@contextmanager
def _live_server(machine, tmp_path, **overrides):
    """A real HTTP server on a background thread; yields its address box."""
    settings = dict(trace_sample=0.0, tsdb_interval_s=60.0)
    settings.update(overrides)
    service = ReductionService(
        machine,
        executor=SweepExecutor(
            machine, workers=1, cache=ResultCache(tmp_path / "cache")
        ),
        settings=ServiceSettings(**settings),
        registry=MetricsRegistry(),
    )
    box = {}
    started = threading.Event()
    stop = None

    def run():
        async def body():
            nonlocal stop
            server = ServiceHTTPServer(service, host="127.0.0.1", port=0)
            await server.start()
            stop = asyncio.Event()
            box["address"] = server.address
            box["service"] = service
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await stop.wait()
            await server.stop()

        asyncio.run(body())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server thread failed to start"
    try:
        yield box
    finally:
        box["loop"].call_soon_threadsafe(stop.set)
        thread.join(10)


class TestSloCheck:
    def test_unreachable_is_2(self, capsys):
        code = main([
            "slo", "check", "--url", "http://127.0.0.1:9",
            "--timeout", "0.5",
        ])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err

    def test_healthy_is_0(self, machine, tmp_path, capsys):
        with _live_server(machine, tmp_path) as box:
            code = main(["slo", "check", "--url", box["address"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "health: ok (HTTP 200)" in out
        assert "error-rate: ok" in out

    def test_violating_is_1_and_renders_alerts(
        self, machine, tmp_path, capsys
    ):
        with _live_server(machine, tmp_path) as box:
            registry = box["service"].registry
            registry.counter("service.requests").add(10)
            registry.counter("service.completed", status="error").add(5)
            box["service"].tsdb.sample()
            code = main(["slo", "check", "--url", box["address"]])
        out = capsys.readouterr().out
        assert code == 1
        assert "error-rate: ALERT" in out
        assert "0.5!" in out  # the violated window value is marked
        assert "health: VIOLATING (HTTP 503)" in out

    def test_out_writes_the_report(self, machine, tmp_path, capsys):
        report = tmp_path / "health.json"
        with _live_server(machine, tmp_path) as box:
            code = main([
                "slo", "check", "--url", box["address"],
                "--out", str(report),
            ])
        assert code == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["healthy"] is True
        assert doc["slo_enabled"] is True

    def test_liveness_only_without_engine(self, machine, tmp_path, capsys):
        with _live_server(machine, tmp_path, tsdb_interval_s=0.0) as box:
            code = main(["slo", "check", "--url", box["address"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "SLO evaluation is off" in out


class TestObsBlackbox:
    def _dump(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "flight"))
        recorder.record("pool", "task_assigned", task=3, slot=0)
        recorder.record("pool", "worker_crash", slot=0, exitcode=-9)
        return recorder.dump("worker_crash", slot=0, worker_pid=4242)

    def test_renders_a_dump(self, tmp_path, capsys):
        path = self._dump(tmp_path)
        assert main(["obs", "blackbox", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight dump: reason=worker_crash" in out
        assert "slot=0, worker_pid=4242" in out
        assert "pool.task_assigned" in out
        assert "pool.worker_crash" in out
        assert "exitcode=-9" in out

    def test_window_filters_old_events(self, tmp_path, capsys):
        path = self._dump(tmp_path)
        assert main(["obs", "blackbox", str(path), "--window", "3600"]) == 0
        out = capsys.readouterr().out
        assert "in the last 3600s" in out
        assert "pool.worker_crash" in out

    def test_non_dump_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        assert main(["obs", "blackbox", str(path)]) == 2
        assert "not a flight-recorder dump" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert main(["obs", "blackbox", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


_REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestSigtermDump:
    @pytest.mark.parametrize(
        "command, role", [("serve", "shard"), ("coordinator", "coordinator")]
    )
    def test_sigterm_dumps_once_and_exits_zero(
        self, tmp_path, command, role
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(_REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        for name in ("REPRO_FAULTS", "REPRO_FLIGHT_DIR", "REPRO_JOBS_DIR",
                     "REPRO_TELEMETRY"):
            env.pop(name, None)
        flight_dir = tmp_path / "flight"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--functional-cap", "65536",
             "--no-cache", command, "--host", "127.0.0.1", "--port", "0",
             "--flight-dir", str(flight_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, f"repro {command} never announced its address"
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        [dump] = flight_dir.glob("flight-*-sigterm.json")
        doc = json.loads(dump.read_text())
        assert doc["reason"] == "sigterm"
        assert doc["pid"] == proc.pid
        assert doc["context"] == {"role": role}
