"""Pin the reference copy's times: perfbench/reference/nominal.json.

    python3 perfbench/nominal.py --passes 8

Times the reference copy (reference/quiverstab) alone on every
workload's seed-0 problems: per problem the fastest of ``--passes``
verify runs, and the fastest of ``--setups`` set-ups (fresh import plus
problem loading).  run.py multiplies its measured library / reference
ratios by these, so the file is written once and then kept: rewriting it
rescales every time metric.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import platform

import run

OUT = run.REFERENCE / "nominal.json"


def pin(workload: str, passes: int, setups: int) -> dict:
    setup_s = []
    for _ in range(setups):
        main, problems, seconds = run.setup(run.import_reference, workload, 0)
        setup_s.append(seconds)
    fastest = {}
    for _ in range(passes):
        _wall, results = run.run_pass(main, problems)
        bad = run.failures(problems, results)
        if bad:
            raise run.BenchmarkError(f"reference copy failed: {bad[:3]}")
        for problem, (_c, _o, seconds) in zip(problems, results):
            fastest[problem.id] = min(fastest.get(problem.id, seconds), seconds)
    return {"setup_s": min(setup_s), "problems": fastest}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=8)
    parser.add_argument("--setups", type=int, default=40)
    args = parser.parse_args()
    out = {
        "measured_on": f"Python {platform.python_version()}, {platform.machine()},"
                       f" {os.cpu_count()} CPUs",
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        out["workloads"][workload] = pin(workload, args.passes, args.setups)
        pinned = out["workloads"][workload]
        print(f"{workload}: set-up {pinned['setup_s']:.4f} s,"
              f" pass {sum(pinned['problems'].values()):.3f} s")
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
