"""The committed perfbench trajectory and its rendered table."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_history", REPO_ROOT / "tools" / "bench_history.py"
)
bench_history = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_history)


def test_committed_table_is_the_rendered_one():
    text = bench_history.DOC.read_text()
    table = bench_history.render(bench_history.load())
    assert bench_history.splice(text, table) == text


def test_rows_are_well_formed():
    rows = bench_history.load()
    assert rows
    for row in rows:
        assert 0 <= row["wins"] <= row["pairs"]
        assert row["seeds"]
        for side in (row["before"], row["after"]):
            assert set(side) == {"median", "q1", "q3"}


def test_nulls_render_as_dashes():
    row = {
        "sha": None, "pr": 1, "workload": "job", "metric": "cold_ms",
        "seeds": [1, 2, 3], "pairs": 3, "wins": 2, "claim": False,
        "before": {"median": 10.5, "q1": None, "q3": None},
        "after": {"median": None, "q1": None, "q3": None},
    }
    line = bench_history.render([row]).splitlines()[-1]
    assert line == ("| 1 | — | job | `cold_ms` | 1–3 | 2/3 | 10.5 | — "
                    "| no |")


def test_a_row_missing_a_key_is_refused(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text(json.dumps({"pr": 1}) + "\n")
    with pytest.raises(ValueError, match="missing"):
        bench_history.load(path)


def test_splice_needs_both_markers():
    with pytest.raises(ValueError, match="markers"):
        bench_history.splice("no markers here", "| table |")
