"""Mutated problem files, edited as JSON values or as raw bytes, must end
in a documented exit code, never in an uncaught exception or a
traceback."""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quiverstab.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "perfbench" / "problems"
SEEDS = [
    json.loads((PROBLEMS / "small-sweep" / f"{name}.json").read_text())
    for name in (
        "000-loop-arrow-12-F2-unstable",
        "001-kron1-22-F2-open",
        "004-d4-0111-F3-unstable",
        "006-cycle2-22-F3-open",
        "008-a3-011-F2-unstable",
    )
]
COMMANDS = ("verify", "kempf", "hn", "semistable", "enumerate")
DOCUMENTED_EXITS = {0, 2, 3, 4}
BUDGET = "400"

# small integers only: a dimension in the hundreds would make even the
# budget's exact candidate count slow to compute
SCALARS = (
    st.integers(-3, 12)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(["", "v0", "v1", "z", "0", "1"])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["v0", "v1", "0", "1", "p"]), inner, max_size=3),
    max_leaves=6,
)


def paths(obj, prefix=()):
    """Every key path into obj, the root included."""
    yield prefix
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from paths(val, prefix + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from paths(val, prefix + (i,))


def mutate(data, draw):
    """One random edit at a random place: replace, delete or add."""
    path = draw(st.sampled_from(list(paths(data))))
    if not path:
        return draw(VALUES)
    *parents, last = path
    owner = data
    for key in parents:
        owner = owner[key]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        owner[last] = draw(VALUES)
    elif action == "delete":
        del owner[last]
    elif isinstance(owner, dict):
        owner[draw(st.sampled_from(["v2", "2", "extra"]))] = draw(VALUES)
    else:
        owner.append(draw(VALUES))
    return data


def mutate_bytes(raw, draw):
    """One random byte edit at a random offset: replace, delete or insert."""
    i = draw(st.integers(0, len(raw)))
    byte = draw(st.integers(0, 255))
    action = draw(st.sampled_from(["replace", "delete", "insert"]))
    if action == "insert" or i == len(raw):
        raw.insert(i, byte)
    elif action == "replace":
        raw[i] = byte
    else:
        del raw[i]


def run_cli(argv, stdin_bytes):
    """main(argv) reading stdin_bytes as UTF-8 from stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_mutated_problems_exit_documented(data):
    problem = copy.deepcopy(data.draw(st.sampled_from(SEEDS)))
    for _ in range(data.draw(st.integers(1, 3))):
        problem = mutate(problem, data.draw)
    command = data.draw(st.sampled_from(COMMANDS))
    argv = ["--format", "json", command, "-", "--budget", BUDGET]
    code, err = run_cli(argv, json.dumps(problem).encode())
    assert code in DOCUMENTED_EXITS
    assert "Traceback" not in err


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_byte_mutated_problems_exit_documented(data):
    raw = bytearray(json.dumps(data.draw(st.sampled_from(SEEDS))).encode())
    for _ in range(data.draw(st.integers(1, 3))):
        mutate_bytes(raw, data.draw)
    command = data.draw(st.sampled_from(COMMANDS))
    argv = ["--format", "json", command, "-", "--budget", BUDGET]
    code, err = run_cli(argv, bytes(raw))
    assert code in DOCUMENTED_EXITS
    assert "Traceback" not in err
