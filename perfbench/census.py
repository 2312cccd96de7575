"""Workload census: what each problem set is made of.

    python3 perfbench/census.py

runs every workload's seed-0 problems once untraced and once traced and
writes perfbench/census.json: per problem its latency, candidate
product, subreps, chains and distinct step sequences, and per workload
the totals plus the shares that later claims cite (distinct sequences
per chain scored, semistable problems).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import statistics
from pathlib import Path

import inputs
import run
import tracing

OUT = Path(__file__).resolve().parent / "census.json"


def census(workload: str) -> dict:
    modules = run.import_library()
    problems = inputs.load(workload, 0)
    wall, results = run.run_pass(modules["cli"].main, problems)
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        run.run_pass(modules["cli"].main, problems, tracer)
    finally:
        tracer.uninstall()
    rows = []
    for problem, (_code, _out, seconds) in zip(problems, results):
        stats = tracer.per_problem[problem.id]
        rows.append({
            "id": problem.id,
            "semistable": problem.expect["semistable"],
            "ms": round(seconds * 1e3, 1),
            "candidates": stats["max_candidates"],
            "subreps": stats["max_subreps"],
            "chains": stats["chains"],
            "distinct_sequences": stats["distinct_sequences"],
        })
    chains = sum(r["chains"] for r in rows)

    def spread(key):
        values = [r[key] for r in rows]
        return {"median": statistics.median(values), "max": max(values)}

    return {
        "problems": len(rows),
        "wall_s": round(wall, 2),
        "candidates": spread("candidates"),
        "subreps": spread("subreps"),
        "chains": {**spread("chains"), "total": chains},
        "distinct_sequence_share": round(
            sum(r["distinct_sequences"] for r in rows) / max(chains, 1), 4
        ),
        "semistable_share": round(
            sum(r["semistable"] for r in rows) / len(rows), 4
        ),
        "per_problem": rows,
    }


def main() -> int:
    out = {}
    for workload in run.WORKLOADS:
        out[workload] = census(workload)
        summary = {k: v for k, v in out[workload].items() if k != "per_problem"}
        print(workload, json.dumps(summary))
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
