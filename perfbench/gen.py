"""Seeded problem generator for the ``verify`` benchmark.

    python3 perfbench/gen.py --seed 0 --out perfbench/problems

writes, for every workload, one ``verify``-schema JSON file per problem
(each runs as ``quiverstab verify <file>``) and an ``expected.json``
that pins the mathematical answer of each problem: ``semistable``,
``match``, the step bases of both filtrations, ``gamma`` and ``score``.
The committed set is the one for seed 0.

Unstable problems are unstable by construction, never selected by
running the library: the vertex ``top`` gets the strictly largest theta
(sigma is 1 everywhere) and every arrow leaving it kills one common
non-zero vector x, so x spans a subrepresentation of slope theta_top,
which is above the slope of the whole.  ``top`` is a sink in every
family but the oriented 2-cycle, where it has one outgoing arrow.
"Open" problems draw full-rank matrices and a theta that weakly
decreases along the arrows, with the smallest on ``top``; many of them
are semistable, but which ones is only known after pinning, and the
census reports the share.  Pinning runs the library at the current
commit and refuses a set in which a constructed-unstable problem comes
out semistable or the two routes disagree.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import fp

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("chain-heavy", "enum-heavy", "small-sweep")

# name -> (vertices, arrows, top vertex)
FAMILIES = {
    "kron1": (("v0", "v1"), (("v0", "v1"),), "v1"),
    "kron2": (("v0", "v1"), (("v0", "v1"), ("v0", "v1")), "v1"),
    "a3": (("v0", "v1", "v2"), (("v0", "v1"), ("v1", "v2")), "v2"),
    "d4": (("a", "b", "c", "z"), (("a", "z"), ("b", "z"), ("c", "z")), "z"),
    "loop-arrow": (("v0", "v1"), (("v0", "v0"), ("v0", "v1")), "v1"),
    "cycle2": (("v0", "v1"), (("v0", "v1"), ("v1", "v0")), "v1"),
}

# Fixed recipes: (family, dims, p, kind, count).
RECIPES = {
    # Kempf chain search dominates: hundreds of subreps at most, but
    # a thousand to ten thousand chains each.  No problem is shorter
    # than ~0.1 s, so each latency sample spans many scheduler ticks.
    "chain-heavy": [
        ("kron2", (2, 3), 7, "open", 1),
        ("kron2", (2, 3), 5, "unstable", 1),
        ("kron2", (2, 3), 3, "open", 2),
        ("a3", (2, 2, 2), 3, "unstable", 2),
        ("a3", (2, 2, 2), 3, "open", 2),
        ("d4", (1, 1, 1, 3), 2, "unstable", 2),
        ("d4", (1, 1, 2, 2), 2, "unstable", 4),
    ],
    # Large candidate products, few subreps and chains: enumeration and
    # its closure filter dominate.
    "enum-heavy": [
        ("cycle2", (3, 3), 7, "unstable", 2),
        ("cycle2", (3, 3), 7, "open", 2),
        ("loop-arrow", (5, 2), 3, "unstable", 2),
        ("loop-arrow", (4, 2), 5, "unstable", 2),
        ("loop-arrow", (4, 3), 3, "unstable", 2),
        ("cycle2", (3, 2), 7, "unstable", 2),
        ("cycle2", (3, 2), 7, "open", 2),
    ],
}

# small-sweep: per-family maximum dims, drawn over F_2 and F_3.
SWEEP_SIZE = 300
SWEEP_MAX_DIMS = {
    "kron1": (2, 2),
    "kron2": (2, 2),
    "a3": (2, 2, 1),
    "d4": (1, 1, 1, 2),
    "loop-arrow": (2, 2),
    "cycle2": (2, 2),
}


def make_problem(rng, family: str, dims: tuple, p: int, kind: str) -> dict:
    """One verify-schema problem; ``kind`` is "unstable" or "open"."""
    vertices, arrows, top = FAMILIES[family]
    d = dict(zip(vertices, dims))
    if d[top] == 0 or not any(d[v] for v in vertices if v != top):
        raise ValueError(f"{family} {dims}: top and some other vertex need dim > 0")
    x = None
    if kind == "unstable":
        x = (0,) * d[top]
        while not any(x):
            x = tuple(rng.randrange(p) for _ in range(d[top]))
    matrices = {}
    for i, (src, tgt) in enumerate(arrows):
        while True:
            rows = [[rng.randrange(p) for _ in range(d[src])] for _ in range(d[tgt])]
            if kind == "unstable" or len(fp.rref(rows, d[src], p)) == min(d[src], d[tgt]):
                break
        if x is not None and src == top:
            # subtract (row . x) / x_j from column j, so that row . x = 0
            j = next(k for k, xk in enumerate(x) if xk)
            inv = pow(x[j], -1, p)
            for row in rows:
                row[j] = (row[j] - fp.apply([row], x, p)[0] * inv) % p
        matrices[str(i)] = rows
    drawn = [rng.randint(-2, 2) for _ in range(len(vertices) - 1)]
    if kind == "unstable":
        others = dict(zip([v for v in vertices if v != top], drawn))
        top_theta = max(drawn) + rng.randint(1, 2)
    else:
        # theta weakly decreasing in vertex order, which follows the arrows
        others = dict(zip([v for v in vertices if v != top], sorted(drawn, reverse=True)))
        top_theta = min(drawn) - rng.randint(1, 2)
    theta = {v: others.get(v, top_theta) for v in vertices}
    return {
        "field": {"p": p},
        "quiver": {"vertices": list(vertices), "arrows": [list(a) for a in arrows]},
        "representation": {"dims": d, "matrices": matrices},
        "stability": {"theta": theta, "sigma": {v: 1 for v in vertices}},
    }


def specs(workload: str, rng) -> list:
    """(family, dims, p, kind) for every problem of the workload."""
    if workload in RECIPES:
        return [
            (family, dims, p, kind)
            for family, dims, p, kind, count in RECIPES[workload]
            for _ in range(count)
        ]
    out = []
    families = sorted(SWEEP_MAX_DIMS)
    while len(out) < SWEEP_SIZE:
        family = rng.choice(families)
        vertices, arrows, top = FAMILIES[family]
        dims = tuple(rng.randint(0, hi) for hi in SWEEP_MAX_DIMS[family])
        d = dict(zip(vertices, dims))
        if d[top] == 0 or not any(d[v] for v in vertices if v != top):
            continue
        kind = "unstable" if len(out) % 4 == 0 else "open"
        # open problems get dims that grow along every arrow, so their
        # full-rank maps are injective and many come out semistable
        if kind == "open" and any(d[s] > d[t] for s, t in arrows):
            continue
        out.append((family, dims, rng.choice((2, 3)), kind))
    return out


def pin(problem: dict, kind: str) -> dict:
    """The pinned answer, from the library at the current commit."""
    from quiverstab import cli

    result = cli.verify_result(problem, cli.qv.DEFAULT_BUDGET)
    if kind == "unstable" and result["semistable"]:
        raise SystemExit("a constructed-unstable problem came out semistable")
    if not result["match"]:
        raise SystemExit("the two routes disagree on a generated problem")
    expect = {"semistable": result["semistable"], "match": result["match"]}
    if not result["semistable"]:
        expect["hn_steps"] = result["hn"]["steps"]
        expect["kempf_steps"] = result["kempf"]["steps"]
        expect["gamma"] = result["gamma"]
        expect["score"] = result["score"]
    return expect


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "problems")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for workload in WORKLOADS:
        rng = random.Random(f"{args.seed}/{workload}")
        wdir = args.out / workload
        wdir.mkdir(parents=True, exist_ok=True)
        for old in wdir.glob("*.json"):
            old.unlink()
        entries = []
        for i, (family, dims, p, kind) in enumerate(specs(workload, rng)):
            problem = make_problem(rng, family, dims, p, kind)
            pid = f"{i:03d}-{family}-{''.join(map(str, dims))}-F{p}-{kind}"
            (wdir / f"{pid}.json").write_text(json.dumps(problem) + "\n")
            entries.append({"id": pid, "kind": kind, "expect": pin(problem, kind)})
        expected = {"seed": args.seed, "workload": workload, "problems": entries}
        (wdir / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
        print(f"{workload}: {len(entries)} problems")
    return 0


if __name__ == "__main__":
    sys.exit(main())
