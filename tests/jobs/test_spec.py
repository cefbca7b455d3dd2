"""Job specs: strict parsing, lazy enumeration, digest identity."""

import itertools

import pytest

from repro.core.cases import PAPER_CASES
from repro.errors import SpecError
from repro.jobs.api import JobSpec, MAX_POINTS, parse_job_spec
from repro.openmp.reduction_ops import ALL_REDUCTION_IDENTIFIERS
from repro.verify.fuzzer import case_digest


class TestParse:
    def test_defaults_round_trip(self):
        spec = parse_job_spec({})
        assert spec == JobSpec()
        assert parse_job_spec(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="trails"):
            parse_job_spec({"trails": 5})

    def test_non_object_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            parse_job_spec([1, 2])

    def test_unknown_case_rejected(self):
        with pytest.raises(SpecError, match="case"):
            parse_job_spec({"case": "C9"})

    @pytest.mark.parametrize("field", ["teams", "v", "threads"])
    def test_axes_must_be_nonempty_int_lists(self, field):
        with pytest.raises(SpecError, match=field):
            parse_job_spec({field: []})
        with pytest.raises(SpecError, match=field):
            parse_job_spec({field: ["64"]})

    def test_teams_and_v_must_be_powers_of_two(self):
        with pytest.raises(SpecError, match="teams"):
            parse_job_spec({"teams": [100]})
        with pytest.raises(SpecError, match="v"):
            parse_job_spec({"v": [3]})

    def test_teams_must_cover_v(self):
        with pytest.raises(SpecError, match="teams"):
            parse_job_spec({"teams": [2], "v": [4]})

    def test_grid_size_capped(self):
        doc = {"teams": [256] * 60000, "v": [1, 2, 4],
               "threads": list(range(1, 1025))}
        with pytest.raises(SpecError):
            parse_job_spec(doc)
        assert MAX_POINTS == 100_000_000


class TestEnumeration:
    SPEC = JobSpec(teams=(64, 128), v=(2, 4), threads=(32,), trials=3)

    def test_total_matches_lazy_stream(self):
        assert self.SPEC.total_points() == 4
        assert len(list(self.SPEC.points())) == 4

    def test_nested_order_is_canonical(self):
        assert list(self.SPEC.points()) == [
            (64, 2, 32), (64, 4, 32), (128, 2, 32), (128, 4, 32),
        ]

    def test_payloads_follow_point_order(self):
        payloads = list(self.SPEC.payloads())
        assert [(p[1].teams, p[1].v, p[1].threads) for p in payloads] == \
            list(self.SPEC.points())
        assert all(p[2] == 3 and p[3] is False for p in payloads)

    def test_point_digests_use_public_case_digest(self):
        first = next(self.SPEC.point_digests("fp"))
        assert first == case_digest(
            {
                "kind": "gpu_point", "machine": "fp", "case": "C1",
                "teams": 64, "v": 2, "threads": 32, "trials": 3,
                "verify": False,
            }
        )

    def test_points_digest_is_machine_scoped(self):
        assert self.SPEC.points_digest("fp-a") != \
            self.SPEC.points_digest("fp-b")
        assert self.SPEC.points_digest("fp-a") == \
            self.SPEC.points_digest("fp-a")


def _historical_point_digests(spec, machine_fingerprint):
    """The reference construction: ``case_digest`` of each point's
    parameter document, built afresh in nested order."""
    for teams in spec.teams:
        for v in spec.v:
            for threads in spec.threads:
                doc = {
                    "kind": "gpu_point",
                    "machine": machine_fingerprint,
                    "case": spec.case,
                    "teams": teams,
                    "v": v,
                    "threads": threads,
                    "trials": spec.trials,
                    "verify": spec.verify,
                }
                if spec.op != "+":
                    doc["op"] = spec.op
                yield case_digest(doc)


def _specs_for(case):
    """One 12-point spec per identifier valid for *case*, verify both ways."""
    for op in sorted(ALL_REDUCTION_IDENTIFIERS):
        for verify in (False, True):
            try:
                yield parse_job_spec({
                    "case": case, "op": op, "verify": verify,
                    "teams": [64, 128], "v": [1, 4],
                    "threads": [1, 33, 1024], "trials": 7,
                })
            except SpecError:
                continue  # identifier not valid for this case's type


def _starts(total):
    return sorted({0, 1, total // 2, total - 1, total})


class TestStartIndex:
    """``start`` skips points without building or hashing them, and the
    per-spec-prefix digests equal the generic ``case_digest`` walk."""

    FINGERPRINTS = ("0" * 64, 'quote" back\\slash\ttab \u00e9\u2603\x01')

    @pytest.mark.parametrize("case", [c.name for c in PAPER_CASES])
    def test_point_digests_equal_case_digest_from_every_start(self, case):
        specs = list(_specs_for(case))
        assert {spec.op for spec in specs} >= {"+", "max", "min"}
        for spec in specs:
            total = spec.total_points()
            for fp in self.FINGERPRINTS:
                reference = list(_historical_point_digests(spec, fp))
                assert len(reference) == total
                for start in _starts(total):
                    assert list(spec.point_digests(fp, start)) == \
                        reference[start:], (spec.op, spec.verify, fp, start)

    @pytest.mark.parametrize("op", ["+", "max"])
    def test_points_and_payloads_from_start_equal_islice(self, op):
        spec = JobSpec(teams=(64, 128, 256), v=(2, 4), threads=(32, 64),
                       trials=3, verify=True, op=op)
        total = spec.total_points()
        for start in _starts(total):
            assert list(spec.points(start)) == \
                list(itertools.islice(spec.points(), start, None))
            assert list(spec.payloads(start)) == \
                list(itertools.islice(spec.payloads(), start, None))

    def test_points_digest_is_the_stream_of_point_digests(self):
        import hashlib

        spec = JobSpec(teams=(64, 128), v=(2, 4), threads=(32,), op="max")
        sha = hashlib.sha256()
        for digest in _historical_point_digests(spec, "fp"):
            sha.update(digest.encode("ascii") + b"\n")
        assert spec.points_digest("fp") == sha.hexdigest()


class TestIdentity:
    def test_job_id_is_spec_and_machine_scoped(self):
        a = JobSpec(teams=(64,))
        b = JobSpec(teams=(128,))
        assert a.job_id("fp") == a.job_id("fp")
        assert a.job_id("fp") != b.job_id("fp")
        assert a.job_id("fp") != a.job_id("other")
        assert a.job_id("fp").startswith("j")

    def test_spec_digest_ignores_nothing(self):
        base = JobSpec()
        assert base.spec_digest != JobSpec(label="x").spec_digest

    def test_large_grid_enumerates_lazily(self):
        spec = JobSpec(
            teams=tuple(1 << k for k in range(6, 18)),
            v=(1, 2, 4), threads=tuple(range(32, 1024, 32)),
        )
        assert spec.total_points() > 1000
        # points() is a generator: taking 3 costs 3.
        assert len(list(itertools.islice(spec.points(), 3))) == 3
