"""Problem loading, per-seed inputs and the correctness gate.

The committed problem set (see gen.py) is the seed-0 input.  Seed n
applies a seeded change of basis g_v in GL(d_v, F_p) at every vertex,
A_a -> g_t A_a g_s^-1, and a seeded order.  An isomorphic
representation has an isomorphic subrepresentation lattice, so every
seed gives new matrices with the same lattice, chain counts and work:
the seeds differ in their inputs, not in their cost.  The canonical
filtrations move with the basis, so the pinned step bases map to
rref(g_v . basis) and every other pinned field stays as it is; each
seed is therefore checked against pinned answers, never against the
code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import fp

PROBLEMS = Path(__file__).resolve().parent / "problems"
STEP_KEYS = ("hn_steps", "kempf_steps")


@dataclass
class Problem:
    id: str
    kind: str  # "unstable" (by construction) or "open"
    text: str  # the verify-schema JSON fed to the CLI
    expect: dict  # pinned answer, in this seed's basis


def load(workload: str, seed: int) -> list:
    """The workload's problems for ``seed``, in the seed's order."""
    wdir = PROBLEMS / workload
    pinned = json.loads((wdir / "expected.json").read_text())["problems"]
    rng = random.Random(seed)
    out = []
    for entry in pinned:
        problem = json.loads((wdir / f"{entry['id']}.json").read_text())
        expect = entry["expect"]
        if seed != 0:
            problem, expect = change_basis(problem, expect, rng)
        out.append(Problem(entry["id"], entry["kind"], json.dumps(problem), expect))
    if seed != 0:
        rng.shuffle(out)
    return out


def change_basis(problem: dict, expect: dict, rng):
    """The isomorphic problem under random g_v, and its pinned answer."""
    p = problem["field"]["p"]
    dims = problem["representation"]["dims"]
    g = {v: fp.random_invertible(rng, n, p) for v, n in dims.items()}
    g_inv = {v: fp.inverse(m, p) for v, m in g.items()}
    matrices = {}
    for i, (src, tgt) in enumerate(problem["quiver"]["arrows"]):
        a = problem["representation"]["matrices"][str(i)]
        a = fp.matmul(fp.matmul(g[tgt], a, dims[src], p), g_inv[src], dims[src], p)
        matrices[str(i)] = a
    moved = json.loads(json.dumps(problem))
    moved["representation"]["matrices"] = matrices
    expect = dict(expect)
    for key in STEP_KEYS:
        if key in expect:
            expect[key] = [
                {
                    v: [
                        list(row)
                        for row in fp.rref(
                            [fp.apply(g[v], vec, p) for vec in basis], dims[v], p
                        )
                    ]
                    for v, basis in step.items()
                }
                for step in expect[key]
            ]
    return moved, expect


def check(code, stdout: str, expect: dict):
    """None if the run matches its pinned answer, else the reason.

    ``code`` is the exit code, or a description when the CLI raised."""
    if code != 0:
        return f"exit code {code}"
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "no JSON report on stdout"
    if result.get("match") is not True:
        return "match is not true"
    got = {"semistable": result.get("semistable"), "match": result.get("match")}
    if not result.get("semistable"):
        got["hn_steps"] = result.get("hn", {}).get("steps")
        got["kempf_steps"] = result.get("kempf", {}).get("steps")
        got["gamma"] = result.get("gamma")
        got["score"] = result.get("score")
    for key in sorted(set(got) | set(expect)):
        if got.get(key) != expect.get(key):
            return f"{key} differs from the pinned answer"
    return None
