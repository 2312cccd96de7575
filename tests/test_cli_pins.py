"""The CLI keeps what the report digest table does not cover.

tests/report_digests.json pins only `--format json` of the file commands.
tests/cli_pins.json holds, for each argv below, the exit code, stdout
with its timing masked and stderr of one in-process `main` call: the
inline commands (the README examples and rejected flags) in both
formats, and the text report of every file command on one unstable and
one semistable problem of each benchmark workload.  A change that means
to alter one regenerates the file with

    PYTHONPATH=src python tests/test_cli_pins.py

and states why in CHANGES.md.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from quiverstab.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().with_name("cli_pins.json")

INLINE = (
    ["p1", "--blocks", "2:1,0:1,-1:1"],
    ["rank2", "--candidates", "2:0,0:1", "--deg-e", "3", "--s", "2", "--tau", "1/4"],
    ["rank3", "--v=-5,1,4", "--tau", "1/3"],
    ["rank3", "--v", "1,2", "--tau", "1/3"],
    ["rank3", "--v=-5,1,4", "--tau", "x"],
    ["p1", "--blocks", "nope"],
    ["rank3", "--v=-1,2,-1", "--tau", "1"],
    ["rank3", "--v=2,-4,2", "--tau", "1"],
)
PROBLEMS = (
    "perfbench/problems/chain-heavy/001-kron2-23-F5-unstable.json",
    "perfbench/problems/chain-heavy/000-kron2-23-F7-open.json",
    "perfbench/problems/enum-heavy/000-cycle2-33-F7-unstable.json",
    "perfbench/problems/enum-heavy/002-cycle2-33-F7-open.json",
)
CASES = [
    ["--format", fmt, *argv] for argv in INLINE for fmt in ("text", "json")
] + [
    [command, path]
    for path in PROBLEMS
    for command in ("hn", "kempf", "verify", "semistable", "enumerate")
]

TIMING = re.compile(r'(timing_ms"?: )[^\s}]+')


def run(argv) -> dict:
    """Exit code, stdout with timing_ms masked, and stderr of main(argv),
    a problem path read from the repository root."""
    args = [str(ROOT / a) if a.startswith("perfbench/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return {
        "code": code,
        "stdout": TIMING.sub(r"\1*", out.getvalue()),
        "stderr": err.getvalue(),
    }


def pins() -> list:
    return [{"argv": argv, **run(argv)} for argv in CASES]


def case_id(argv) -> str:
    return " ".join(Path(a).stem if a.startswith("perfbench/") else a for a in argv)


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_cli_output_matches_its_pin(argv):
    pinned = {tuple(p["argv"]): p for p in json.loads(PINS.read_text())}
    assert len(pinned) == len(CASES)
    assert {"argv": argv, **run(argv)} == pinned[tuple(argv)]


if __name__ == "__main__":
    PINS.write_text(json.dumps(pins(), indent=1) + "\n")
