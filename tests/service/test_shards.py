"""``repro serve --shards N``: SIGTERM to the supervisor stops the tree.

A shard leaves through ``os._exit``, which skips the interpreter's exit
hooks; its sweep pool (started by the first computed request when a
per-task timeout is set) must still be shut down, or the pool workers
outlive the server as orphans.  The pool starts no resource tracker,
so there is no tracker process to outlive it.
"""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

_REPO_SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or not hasattr(socket, "SO_REUSEPORT"),
    reason="needs Linux /proc, fork and SO_REUSEPORT",
)


def _stat_fields(pid):
    """``/proc/<pid>/stat`` fields after the command name, or ``None``."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def _descendants(root):
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = set(), [root]
    while stack:
        for child in children.get(stack.pop(), []):
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def _running(pid):
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def test_sigterm_to_supervisor_stops_every_descendant():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(_REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    env.pop("REPRO_FAULTS", None)
    env["REPRO_SWEEP_TIMEOUT"] = "10"  # computed points go to the pool
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--functional-cap", "65536",
         "--no-cache", "serve", "--host", "127.0.0.1", "--port", "0",
         "--shards", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        text=True,
    )
    tree = set()
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "the supervisor never announced its address"
        banner = proc.stdout.readline()
        url = banner.split("listening on ")[1].split()[0]
        deadline = time.monotonic() + 30
        while True:  # the banner precedes the shards' listeners
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=5):
                    break
            except OSError:
                assert time.monotonic() < deadline, "no shard answered"
                time.sleep(0.1)
        for k in range(8):  # fresh connections spread over both shards
            body = json.dumps({"case": "C1", "teams": 1 << (6 + k),
                               "v": 4, "trials": 2}).encode()
            request = urllib.request.Request(
                url + "/simulate", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as resp:
                assert json.loads(resp.read())["source"] == "computed"
        tree = _descendants(proc.pid)
        # Two shards plus at least one shard's pool.
        assert len(tree) > 2, tree
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in tree):
            if time.monotonic() > deadline:
                break
            time.sleep(0.1)
        left = sorted(pid for pid in tree if _running(pid))
        assert not left, f"descendants still running 10 s after SIGTERM: {left}"
    finally:
        if proc.poll() is None:
            tree |= _descendants(proc.pid)
            proc.kill()
            proc.wait(timeout=10)
        for pid in tree:
            if _running(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        proc.stdout.close()
