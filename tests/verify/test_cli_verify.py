"""``repro verify`` exit-code contract: 0 clean, 1 divergence, 2 usage.

These run the real console entry point in a subprocess — the CI smoke
job and any wrapping script see exactly these codes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
        timeout=300,
    )


class TestExitZero:
    def test_clean_fuzz(self, tmp_path):
        out = tmp_path / "fuzz.json"
        proc = run_cli(
            "verify", "fuzz", "--seed", "42", "--cases", "6",
            "--kinds", "exec,reject", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "case list sha256:" in proc.stdout
        report = json.loads(out.read_text())
        assert report["ok"] and report["cases_run"] == 6

    def test_diff_alias_same_digest(self):
        a = run_cli("verify", "fuzz", "--seed", "9", "--cases", "4",
                    "--kinds", "reject")
        b = run_cli("verify", "diff", "--seed", "9", "--cases", "4",
                    "--kinds", "reject")
        assert a.returncode == b.returncode == 0
        digest = [l for l in a.stdout.splitlines() if "sha256" in l]
        assert digest == [l for l in b.stdout.splitlines() if "sha256" in l]

    def test_bless_then_golden_roundtrip(self, tmp_path):
        bless = run_cli(
            "verify", "bless", "--entries", "table1",
            "--golden-dir", str(tmp_path),
        )
        assert bless.returncode == 0, bless.stderr
        assert (tmp_path / "table1.json").exists()
        check = run_cli(
            "verify", "golden", "--entries", "table1",
            "--golden-dir", str(tmp_path),
        )
        assert check.returncode == 0, check.stderr
        assert "table1: ok" in check.stdout

    def test_perf_without_gate(self, tmp_path):
        out = tmp_path / "bench.json"
        proc = run_cli(
            "verify", "perf", "--repeats", "1",
            "--out", str(out), "--baseline", "none",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert set(doc["benchmarks"]) == {
            "sim_microbench", "warm_cache_sweep", "service_p99",
            "slab_microbench", "telemetry_overhead",
            "checkpoint_overhead", "stream_write",
            "ring_lookup", "membership_tick",
        }


class TestExitOne:
    def test_injected_fault_fails_fuzz(self):
        proc = run_cli(
            "--faults", "verify.oracle:corrupt",
            "verify", "fuzz", "--seed", "42", "--cases", "2",
            "--kinds", "exec",
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DIVERGENCE" in proc.stdout
        assert "device-vs-serial" in proc.stdout

    def test_golden_drift_fails(self, tmp_path):
        run_cli("verify", "bless", "--entries", "table1",
                "--golden-dir", str(tmp_path))
        path = tmp_path / "table1.json"
        doc = json.loads(path.read_text())
        doc["data"]["rows"]["C1"]["baseline"] = {"tampered": True}
        path.write_text(json.dumps(doc))
        proc = run_cli("verify", "golden", "--entries", "table1",
                       "--golden-dir", str(tmp_path))
        assert proc.returncode == 1
        assert "mismatch" in proc.stdout
        assert "bless" in proc.stdout  # remediation hint

    def test_missing_golden_file_fails(self, tmp_path):
        proc = run_cli("verify", "golden", "--entries", "fig1",
                       "--golden-dir", str(tmp_path))
        assert proc.returncode == 1
        assert "missing" in proc.stdout

    def test_perf_regression_fails(self, tmp_path):
        # A baseline claiming the suite once ran 10000x faster than any
        # real machine forces every benchmark over the threshold.
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "benchmarks": {
                name: {"seconds": 1e-12, "repeats": 1}
                for name in ("sim_microbench", "warm_cache_sweep",
                             "service_p99")
            }
        }))
        proc = run_cli(
            "verify", "perf", "--repeats", "1",
            "--out", str(tmp_path / "bench.json"),
            "--baseline", str(baseline),
        )
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout

    def test_out_clobbering_the_baseline_does_not_blind_the_gate(
        self, tmp_path
    ):
        # Writing --out to the baseline's own path must not turn the
        # gate into a self-comparison: the baseline is read first.
        baseline = tmp_path / "BENCH_verify.json"
        baseline.write_text(json.dumps({
            "benchmarks": {"sim_microbench": {"seconds": 1e-12}}
        }))
        proc = run_cli(
            "verify", "perf", "--repeats", "1",
            "--out", str(baseline), "--baseline", str(baseline),
        )
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout


class TestExitTwo:
    def test_zero_cases_is_a_usage_error(self):
        proc = run_cli("verify", "fuzz", "--cases", "0")
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    def test_unknown_kind_is_a_usage_error(self):
        proc = run_cli("verify", "fuzz", "--cases", "2",
                       "--kinds", "exec,frobnicate")
        assert proc.returncode == 2

    def test_unknown_golden_entry_is_a_usage_error(self, tmp_path):
        proc = run_cli("verify", "golden", "--entries", "table9",
                       "--golden-dir", str(tmp_path))
        assert proc.returncode == 2

    def test_missing_subcommand_is_a_usage_error(self):
        proc = run_cli("verify")
        assert proc.returncode == 2
