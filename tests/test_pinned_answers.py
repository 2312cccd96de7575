"""Every committed benchmark problem keeps its pinned answer.

perfbench/problems/<workload>/ holds the seed-0 problem files of each
workload and expected.json, which pins the mathematical answer of each:
semistable, match and, for an unstable problem, the step bases of both
filtrations, gamma and the score.  `verify --format json` must exit 0 and
report exactly those fields on every problem.
"""

import json
from pathlib import Path

import pytest

from quiverstab.cli import EXIT_OK, main

PROBLEMS = Path(__file__).resolve().parent.parent / "perfbench" / "problems"
WORKLOADS = ("chain-heavy", "enum-heavy", "small-sweep")


def pinned_fields(result: dict) -> dict:
    """The fields of a verify result that expected.json pins."""
    got = {"semistable": result.get("semistable"), "match": result.get("match")}
    if not result.get("semistable"):
        got["hn_steps"] = result.get("hn", {}).get("steps")
        got["kempf_steps"] = result.get("kempf", {}).get("steps")
        got["gamma"] = result.get("gamma")
        got["score"] = result.get("score")
    return got


@pytest.mark.parametrize("workload", WORKLOADS)
def test_verify_gives_pinned_answers(workload, capsys):
    pinned = json.loads((PROBLEMS / workload / "expected.json").read_text())
    assert pinned["seed"] == 0 and pinned["problems"]
    wrong = []
    for entry in pinned["problems"]:
        path = PROBLEMS / workload / f"{entry['id']}.json"
        code = main(["--format", "json", "verify", str(path)])
        result = json.loads(capsys.readouterr().out)["result"]
        if code != EXIT_OK or pinned_fields(result) != entry["expect"]:
            wrong.append(entry["id"])
    assert wrong == []
