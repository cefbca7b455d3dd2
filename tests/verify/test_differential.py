"""The differential runner: clean runs are clean, faulted runs diverge."""

import itertools
import json
from dataclasses import replace as dc_replace

import pytest

from repro import Machine
from repro.faults.injector import injected
from repro.verify.differential import (
    JOB_RESUME_KIND,
    ORACLE_FAULT_POINT,
    check_job_resume,
    DifferentialRunner,
    run_fuzz,
)
from repro.verify.fuzzer import CASE_KINDS, generate_cases


class TestCleanRuns:
    @pytest.mark.parametrize("kind", [name for name, _ in CASE_KINDS])
    def test_each_kind_passes(self, machine, kind):
        report = run_fuzz(42, 3, kinds=[kind], machine=machine)
        assert report.ok, [d.describe() for d in report.divergences]
        assert report.cases_run == 3
        assert report.by_kind == {kind: 3}
        assert report.checks > 0
        assert report.exhausted

    def test_digest_matches_generator(self, machine):
        report = run_fuzz(7, 5, kinds=["exec"], machine=machine)
        from repro.verify.fuzzer import case_list_digest

        assert report.digest == case_list_digest(
            generate_cases(7, 5, kinds=["exec"])
        )

    def test_report_round_trips_through_json(self, machine):
        report = run_fuzz(42, 2, kinds=["exec"], machine=machine)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ok"] is True
        assert doc["seed"] == 42
        assert doc["divergences"] == []

    def test_describe_mentions_outcome(self, machine):
        report = run_fuzz(42, 2, kinds=["exec"], machine=machine)
        assert "OK" in report.describe()


class TestFaultedRuns:
    def test_oracle_fault_produces_divergences(self, machine):
        with injected(f"{ORACLE_FAULT_POINT}:corrupt"):
            report = run_fuzz(42, 2, kinds=["exec"], machine=machine)
        assert not report.ok
        checks = {d.check for d in report.divergences}
        assert "device-vs-serial" in checks
        # The corruption is applied after the device run, so the
        # device-vs-host comparison diverges too.
        assert "device-vs-host" in checks
        for d in report.divergences:
            assert d.detail["tolerance"]

    def test_fault_divergence_is_deterministic(self, machine):
        with injected(f"{ORACLE_FAULT_POINT}:corrupt"):
            a = run_fuzz(11, 2, kinds=["exec"], machine=machine)
            b = run_fuzz(11, 2, kinds=["exec"], machine=machine)
        assert [d.to_dict() for d in a.divergences] == [
            d.to_dict() for d in b.divergences
        ]


class TestDeterminismOracles:
    """The determinism checks take their second measurement on the twin
    machine, which holds nothing from the first, so a model that drifts
    between calls is caught."""

    @pytest.fixture()
    def drifting_model(self, monkeypatch):
        # The k-th modelled launch runs (1 + 1e-3 k) times slower.
        original = Machine.run_kernel
        calls = itertools.count()

        def run_kernel(self, kernel, *args, **kwargs):
            timing = original(self, kernel, *args, **kwargs)
            return dc_replace(
                timing, launch=timing.launch * (1 + 1e-3 * next(calls))
            )

        monkeypatch.setattr(Machine, "run_kernel", run_kernel)

    def _checks(self, machine, kind):
        runner = DifferentialRunner(machine)
        cases = [c for c in generate_cases(42, 40) if c.kind == kind]
        assert cases
        return [d.check for case in cases for d in runner.check_case(case)]

    def test_measurement_drift_diverges(self, fresh_machine, drifting_model):
        checks = self._checks(fresh_machine, "exec")
        assert "measurement-determinism" in checks

    def test_op_measurement_drift_diverges(
        self, fresh_machine, drifting_model
    ):
        checks = self._checks(fresh_machine, "op-exec")
        assert any(
            c.startswith("op-measurement-determinism") for c in checks
        )


class TestBudget:
    def test_zero_budget_runs_nothing(self, machine):
        report = run_fuzz(
            42, 10, kinds=["exec"], machine=machine, time_budget_s=0.0
        )
        assert report.cases_run == 0
        assert not report.exhausted
        assert not report.ok  # zero coverage is never a pass

    def test_runner_checks_accumulate(self, machine):
        runner = DifferentialRunner(machine)
        case = generate_cases(42, 1, kinds=["exec"])[0]
        assert runner.check_case(case) == []
        first = runner.checks
        runner.check_case(case)
        assert runner.checks == 2 * first


class TestJobResumeOracle:
    def test_clean_resume_has_no_divergences(self, machine):
        divergences, checks = check_job_resume(machine)
        assert divergences == []
        assert checks >= 6

    def test_run_fuzz_runs_the_oracle_on_request(self, machine):
        report = run_fuzz(
            42, 1, kinds=[JOB_RESUME_KIND], machine=machine
        )
        assert report.ok, [d.describe() for d in report.divergences]
        assert report.by_kind == {JOB_RESUME_KIND: 1}
        assert report.cases_run == 1
        assert report.exhausted

    def test_other_kinds_skip_the_oracle(self, machine):
        report = run_fuzz(42, 2, kinds=["exec"], machine=machine)
        assert JOB_RESUME_KIND not in report.by_kind

    def test_zero_budget_skips_and_marks_not_exhausted(self, machine):
        report = run_fuzz(
            42, 1, kinds=[JOB_RESUME_KIND], machine=machine,
            time_budget_s=0.0,
        )
        assert report.cases_run == 0
        assert not report.exhausted
