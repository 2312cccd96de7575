"""Every file command keeps its report on every committed problem.

tests/report_digests.json holds, for each problem file under
perfbench/problems/ and each file command, a 16-hex sha256 prefix of the
exit code, the `--format json` report with timing_ms masked, and stderr.
The test recomputes the table in process and compares.  A change that
means to alter a report regenerates the table with

    PYTHONPATH=src python tests/test_report_digests.py

and states why in CHANGES.md.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from quiverstab.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "perfbench" / "problems"
TABLE = Path(__file__).resolve().with_name("report_digests.json")
COMMANDS = ("hn", "kempf", "verify", "semistable", "enumerate")


def report_digest(path: Path, command: str) -> str:
    """The digest of one run of `quiverstab --format json command path`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--format", "json", command, str(path)])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report["timing_ms"] = None
    blob = json.dumps([code, report, err.getvalue()], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digests() -> dict:
    """{problem file, relative to perfbench/problems: {command: digest}}."""
    return {
        path.relative_to(PROBLEMS).as_posix(): {
            c: report_digest(path, c) for c in COMMANDS
        }
        for path in sorted(PROBLEMS.glob("*/[0-9]*.json"))
    }


def test_every_report_matches_its_digest():
    table = json.loads(TABLE.read_text())
    got = digests()
    assert got.keys() == table.keys()
    changed = [
        (name, c)
        for name, row in got.items()
        for c in COMMANDS
        if row[c] != table[name][c]
    ]
    assert changed == []


if __name__ == "__main__":
    TABLE.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
