"""The ``verify`` benchmark.

    python3 perfbench/run.py --workload chain-heavy --seed 1 --seconds 60 --trace 0

Runs ``quiverstab.cli.main(["--format", "json", "verify", "-"])`` in this
process and thread, one problem after another (a closed loop with one
client), over the workload's whole problem set per pass, until
``--seconds`` have passed and at least MIN_PASSES passes are done.  Each
output is checked against its pinned answer (see inputs.py).

On a shared host the same code runs up to 1.7 times slower from one
minute to the next, so no statistic of one run's own times is steady.
Each problem is therefore verified twice in a row, once by the library
under test (src/) and once by the frozen reference copy in reference/,
in alternating order.  Each latency sample is a measured ratio
(library / reference) times the reference's pinned time for that
problem from reference/nominal.json: the time the library would take
where the reference took its pinned time.  Set-up is paired the same way.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it also runs a traced pass per round and reports the per-layer metrics
of the traced passes (see tracing.py), which are not normalised.  The
metric names and units come from BENCHMARK.json.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # write nothing into the checkout

import argparse
import contextlib
import copy
import gc
import importlib
import importlib.util
import io
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import tracing
from gen import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
REFERENCE_PACKAGE = "quiverstab_reference"
ARGV = ["--format", "json", "verify", "-"]
MIN_PASSES = 3
SETUPS_PER_ROUND = 4  # pairs of set-ups before each pass
TAIL_LADDER = (99, 95, 90, 80, 75, 50)


class BenchmarkError(RuntimeError):
    pass


def import_library() -> dict:
    """Import quiverstab afresh from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "quiverstab"]:
        del sys.modules[name]
    cli = importlib.import_module("quiverstab.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"quiverstab imported from {cli.__file__}, not {SRC}")
    return {
        key: sys.modules[f"quiverstab.{key}"]
        for key in ("cli", "linalg", "quiver", "kempf")
    }


def import_reference():
    """Import the reference copy afresh, under a package name of its own;
    returns its ``cli.main``."""
    for name in [n for n in sys.modules if n.split(".")[0] == REFERENCE_PACKAGE]:
        del sys.modules[name]
    package = REFERENCE / "quiverstab"
    spec = importlib.util.spec_from_file_location(
        REFERENCE_PACKAGE, package / "__init__.py",
        submodule_search_locations=[str(package)],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[REFERENCE_PACKAGE] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{REFERENCE_PACKAGE}.cli").main


def setup(importer, workload: str, seed: int):
    """One fresh import plus problem loading; returns its time too."""
    start = time.perf_counter()
    imported = importer()
    problems = inputs.load(workload, seed)
    return imported, problems, time.perf_counter() - start


def verify(main, problem, tracer=None):
    """Run ``verify`` on one problem; returns (code, stdout, seconds)."""
    sys.stdin = io.StringIO(problem.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = main(ARGV)
            else:
                tracer.begin_problem(problem.id)
                code = tracer.call("cli.main", main, ARGV)
        except Exception as exc:  # the CLI would exit 1 with a traceback
            code = f"1 ({type(exc).__name__}: {exc})"
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


def run_pass(main, problems, tracer=None):
    """Verify every problem once; returns (wall_s, [(code, stdout, s)])."""
    gc.collect()
    results = []
    stdin = sys.stdin
    start = time.perf_counter()
    for problem in problems:
        results.append(verify(main, problem, tracer))
        if tracer is not None:
            tracer.count("report_bytes", len(results[-1][1]))
    wall = time.perf_counter() - start
    sys.stdin = stdin
    return wall, results


def run_paired_pass(main, reference_main, problems, flip: int):
    """Verify every problem with the library and the reference back to
    back, alternating which goes first; returns the library's results
    and the reference's seconds per problem."""
    gc.collect()
    results, reference_s = [], []
    stdin = sys.stdin
    for i, problem in enumerate(problems):
        if (i + flip) % 2:
            results.append(verify(main, problem))
        reference = verify(reference_main, problem)
        if not (i + flip) % 2:
            results.append(verify(main, problem))
        reason = inputs.check(*reference[:2], problem.expect)
        if reason is not None:
            raise BenchmarkError(f"reference copy failed on {problem.id}: {reason}")
        reference_s.append(reference[2])
    sys.stdin = stdin
    return results, reference_s


def failures(problems, results) -> list:
    """(problem id, reason) for every result that misses its pinned answer."""
    out = []
    for problem, (code, stdout, _s) in zip(problems, results):
        reason = inputs.check(code, stdout, problem.expect)
        if reason is not None:
            out.append((problem.id, reason))
    return out


def _perturb(value):
    """The same answer with its first leaf changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return "-" + value
    if isinstance(value, list):
        return [_perturb(value[0])] + value[1:] if value else [0]
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _perturb(value[first])}
    raise TypeError(f"cannot perturb {value!r}")


def gate_self_test(problems, results):
    """Corrupting any one pinned field of a problem must fail that
    problem, or the gate could pass silently."""
    picks = {}
    for problem in problems:
        picks.setdefault(problem.expect["semistable"], problem)
    for target in picks.values():
        for key in target.expect:
            corrupted = copy.copy(target)
            corrupted.expect = {**target.expect, key: _perturb(target.expect[key])}
            trial = [corrupted if p is target else p for p in problems]
            if target.id not in {pid for pid, _r in failures(trial, results)}:
                raise BenchmarkError(
                    f"gate self-test: corrupting {key} of {target.id} went unnoticed"
                )


def tail_percentile(per_pass: int) -> int:
    """Highest ladder percentile with at least ten of the guaranteed
    MIN_PASSES * per_pass samples beyond it; fixed per workload."""
    n = MIN_PASSES * per_pass
    return next(q for q in TAIL_LADDER if n * (100 - q) >= 1000)


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def load_nominal(workload: str) -> dict:
    """The reference copy's pinned set-up and per-problem seconds."""
    pinned = json.loads((REFERENCE / "nominal.json").read_text())
    return pinned["workloads"][workload]


@dataclass
class Measured:
    problems: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # seconds per library set-up
    setup_ratios: list = field(default_factory=list)  # library / reference
    walls: list = field(default_factory=list)  # library seconds per untraced pass
    reference_walls: list = field(default_factory=list)
    ratios: dict = field(default_factory=dict)  # problem id -> [library / reference]
    traced_walls: list = field(default_factory=list)
    layer_runs: list = field(default_factory=list)  # per-layer metrics per traced pass
    attempted: int = 0
    failed: list = field(default_factory=list)  # (problem id, reason)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Measured:
    """Rounds of paired set-ups then one paired pass (then a traced pass
    if ``traced``), so set-up samples spread over the run like the
    passes do."""
    m = Measured()
    start = time.perf_counter()
    while True:
        for j in range(SETUPS_PER_ROUND):
            if j % 2:
                modules, m.problems, setup_s = setup(import_library, workload, seed)
            reference_main, _p, reference_s = setup(import_reference, workload, seed)
            if not j % 2:
                modules, m.problems, setup_s = setup(import_library, workload, seed)
            m.setups.append(setup_s)
            m.setup_ratios.append(setup_s / reference_s)
        main = modules["cli"].main
        results, reference_s = run_paired_pass(main, reference_main, m.problems, len(m.walls))
        if not m.walls:
            gate_self_test(m.problems, results)
        m.walls.append(sum(s for _c, _o, s in results))
        m.reference_walls.append(sum(reference_s))
        for problem, (_c, _o, s), r in zip(m.problems, results, reference_s):
            m.ratios.setdefault(problem.id, []).append(s / r)
        m.attempted += len(results)
        m.failed += failures(m.problems, results)
        if traced:
            tracer = tracing.Tracer(modules)
            tracer.install()
            try:
                wall, results = run_pass(main, m.problems, tracer)
            finally:
                tracer.uninstall()
            tracer.require(workload)
            m.traced_walls.append(wall)
            m.layer_runs.append(tracer.metrics())
            m.attempted += len(results)
            m.failed += failures(m.problems, results)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(m.walls)
        enough = len(m.walls) >= (1 if traced else MIN_PASSES)
        if enough and elapsed + per_round > seconds:
            return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        nominal = load_nominal(args.workload)
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import quiverstab from {SRC}: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError) as exc:
        print(f"error: no pinned reference times: {exc!r}", file=sys.stderr)
        return 2
    except (BenchmarkError, tracing.BoundaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # A problem's latency samples: each paired ratio times the
    # reference's pinned seconds for that problem; its latency: their median.
    samples = {
        pid: [nominal["problems"][pid] * r for r in ratios]
        for pid, ratios in m.ratios.items()
    }
    latency = [statistics.median(per_problem) for per_problem in samples.values()]
    pooled = [s for per_problem in samples.values() for s in per_problem]
    q = tail_percentile(len(m.problems))
    tail = percentile(pooled, q)
    print(
        f"{args.workload} seed {args.seed}: {len(m.walls)} paired passes"
        f"{f', {len(m.traced_walls)} traced' if args.trace else ''}"
        f" of {len(m.problems)} problems, {len(m.setups)} paired set-ups;"
        f" verify_p50_ms is the median of {len(latency)} problem latencies;"
        f" verify_tail_ms is p{q} of {len(pooled)} latency samples"
        f" ({sum(x > tail for x in pooled)} beyond)"
    )
    print(
        f"measured here: library pass median {statistics.median(m.walls):.3f} s,"
        f" reference pass median {statistics.median(m.reference_walls):.3f} s"
        f" (pinned {sum(nominal['problems'].values()):.3f} s),"
        f" library set-up median {statistics.median(m.setups):.4f} s"
    )
    print(f"failed_frac {len(m.failed)}/{m.attempted} = {len(m.failed) / m.attempted:g}")
    for pid, reason in m.failed[:10]:
        print(f"  FAILED {pid}: {reason}")

    if args.trace:
        computed = {
            name: statistics.median(run[name] for run in m.layer_runs)
            for name in m.layer_runs[0]
        }
        computed["trace.wall_s"] = statistics.median(m.traced_walls)
        computed["trace.overhead_s"] = computed["trace.wall_s"] - statistics.median(m.walls)
        wanted = declared["per_layer"]
    else:
        computed = {
            "wall_s": sum(latency),
            "verify_p50_ms": statistics.median(latency) * 1e3,
            "verify_tail_ms": tail * 1e3,
            "setup_s": nominal["setup_s"] * statistics.median(m.setup_ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = declared["end_to_end"]
    metrics = {
        spec["name"]: {"value": computed[spec["name"]], "unit": spec["unit"]}
        for spec in wanted
    }
    print(json.dumps({
        "correct": not m.failed,
        "attempted": m.attempted,
        "failed": len(m.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
