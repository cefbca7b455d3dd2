#!/usr/bin/env python3
"""Render the committed perfbench trajectory into docs/PERFORMANCE.md.

``BENCH_history.jsonl`` at the repository root holds one JSON object per
line: one end-to-end metric of one workload, measured as alternating
pairs of ``perfbench/run.py`` runs (the commit before a change against
the change).  Its keys:

* ``sha`` — the commit that made the change (``null`` for a row that is
  committed together with its change);
* ``pr`` — the change's number in the project's history;
* ``workload``, ``metric`` — as ``BENCHMARK.json`` names them;
* ``seeds`` — the ``--seed`` values the pairs ran;
* ``pairs``, ``wins`` — pairs run, and pairs where the change was better;
* ``claim`` — whether the change claimed a gain on this metric;
* ``before``, ``after`` — ``{"median", "q1", "q3"}`` over the pairs.

Any number the change did not record is ``null``.  This script is the
second step of raw → table: it renders the rows as a Markdown table
between the ``bench-history`` markers of ``docs/PERFORMANCE.md``.

Usage::

    python tools/bench_history.py   # rewrite the table in place
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_history.jsonl"
DOC = ROOT / "docs" / "PERFORMANCE.md"
BEGIN = "<!-- bench-history:begin -->"
END = "<!-- bench-history:end -->"
KEYS = ("sha", "pr", "workload", "metric", "seeds", "pairs", "wins",
        "claim", "before", "after")


def load(path: Path = HISTORY) -> List[Dict[str, Any]]:
    """The history rows, in file order; a row missing a key is an error."""
    rows = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        row = json.loads(line)
        missing = [key for key in KEYS if key not in row]
        if missing:
            raise ValueError(f"{path.name}:{number}: missing {missing}")
        rows.append(row)
    return rows


def _number(value: Optional[float]) -> str:
    return "—" if value is None else f"{value:g}"


def _side(side: Dict[str, Any]) -> str:
    median = _number(side["median"])
    if side["q1"] is None or side["q3"] is None:
        return median
    return f"{median} [{_number(side['q1'])}, {_number(side['q3'])}]"


def _seeds(seeds: Optional[List[int]]) -> str:
    if not seeds:
        return "—"
    if len(seeds) > 2 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}–{seeds[-1]}"
    return ", ".join(map(str, seeds))


def render(rows: List[Dict[str, Any]]) -> str:
    """The rows as a Markdown table (medians with [q1, q3])."""
    lines = [
        "| PR | commit | workload | metric | seeds | wins | before | after "
        "| claim |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        wins = f"{_number(row['wins'])}/{_number(row['pairs'])}"
        lines.append(
            f"| {row['pr']} | {row['sha'] or '—'} | {row['workload']} "
            f"| `{row['metric']}` | {_seeds(row['seeds'])} | {wins} "
            f"| {_side(row['before'])} | {_side(row['after'])} "
            f"| {'yes' if row['claim'] else 'no'} |"
        )
    return "\n".join(lines)


def splice(text: str, table: str) -> str:
    """*text* with everything between the markers replaced by *table*."""
    head, sep, rest = text.partition(BEGIN)
    _, sep2, tail = rest.partition(END)
    if not sep or not sep2:
        raise ValueError(f"markers {BEGIN} / {END} not found")
    return f"{head}{BEGIN}\n{table}\n{END}{tail}"


def main() -> None:
    """Rewrite the table between the markers from the history rows."""
    DOC.write_text(splice(DOC.read_text(), render(load())))


if __name__ == "__main__":
    main()
