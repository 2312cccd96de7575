"""The benchmark's traced run must find and hear every boundary it wraps."""

import importlib.util
import sys
from pathlib import Path

from quiverstab import cli, kempf, linalg, quiver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PROBLEMS = ("000-loop-arrow-12-F2-unstable", "001-kron1-22-F2-open")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_verify_records_every_boundary(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer(
        {"cli": cli, "linalg": linalg, "quiver": quiver, "kempf": kempf}
    )
    tracer.install()
    try:
        for name in PROBLEMS:
            tracer.begin_problem(name)
            path = PERFBENCH / "problems" / "small-sweep" / f"{name}.json"
            argv = ["--format", "json", "verify", str(path)]
            assert tracer.call("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    tracer.require("small-sweep")
    assert tracer.metrics()["quiver.enumerate_calls"] == len(PROBLEMS)
