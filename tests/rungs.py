"""Time each stage of the Kempf route on the rungs of ROADMAP's baseline
table and on their duals, with the chain budget lifted, and check each
one's chain count and best score square against the rung's pin.

    python tests/rungs.py [rung ...]

The rungs are seeded random representations, sigma = 1: maps drawn
entry by entry, arrow by arrow and row by row, from random.Random(1)
over F2 and random.Random(3) over F97; theta is (2, 0, -2) on A3,
(1, 1, 1, -1) on D4 with the sink last and (1, -1) on Kronecker.  The
dual of a rung, M* on the opposite quiver at -theta (oracles.dual), has
the annihilators of M's subreps for its subreps, so it must meet the
same chain count and best score square; its arrows point against vertex
order, so enumeration runs its transposed-mask path at a size no
brute-force oracle reaches.  Each rung and each dual runs in a child
process of its own, so the peak RSS printed is its own.  Per run it
prints the subreps, the strict inclusions, the classes of the quotient
of the inclusion DAG, the chains from 0 to M and the best score, then
the seconds spent on enumeration, the containment masks, the part of
those spent in _Shape.masks filling point masks (the rest transposes
the per-vertex arrow masks into subrep masks), the quotient (with the
chain count) and the search.  It prints timings, so it is not
part of the test suite; the nine rungs and their duals take about 30 s,
and A3 (5,5,5)/F2 and its dual each peak near 440 MB, the n^2
containment masks, so CI runs five of the first six rungs by name.
It exits 1 if a rung's or its dual's chains or best square differ from
PINS, 0 otherwise.
"""

import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# oracles imports from tests/, this script's directory, first on sys.path

from quiverstab import (  # noqa: E402
    Matrix,
    PrimeField,
    Quiver,
    Representation,
    StabilityParams,
    SubrepLattice,
    kempf,
    quiver,
)
from oracles import dual  # noqa: E402

UNBOUNDED = 10**30
A3 = Quiver(("v0", "v1", "v2"), (("v0", "v1"), ("v1", "v2")))
D4 = Quiver(("a", "b", "c", "z"), (("a", "z"), ("b", "z"), ("c", "z")))

# name -> (quiver, p, dims, seed, theta)
RUNGS = {
    "A3 (4,3,3)/F2": (A3, 2, (4, 3, 3), 1, (2, 0, -2)),
    "D4 (2,2,2,4)/F2": (D4, 2, (2, 2, 2, 4), 1, (1, 1, 1, -1)),
    "A3 (4,4,3)/F2": (A3, 2, (4, 4, 3), 1, (2, 0, -2)),
    "A3 (4,4,4)/F2": (A3, 2, (4, 4, 4), 1, (2, 0, -2)),
    "Kron (1,3)/F97": (Quiver.kronecker(1), 97, (1, 3), 3, (1, -1)),
    "D4 (2,2,2,5)/F2": (D4, 2, (2, 2, 2, 5), 1, (1, 1, 1, -1)),
    "A3 (5,4,4)/F2": (A3, 2, (5, 4, 4), 1, (2, 0, -2)),
    "A3 (5,5,4)/F2": (A3, 2, (5, 5, 4), 1, (2, 0, -2)),
    "A3 (5,5,5)/F2": (A3, 2, (5, 5, 5), 1, (2, 0, -2)),
}

# name -> (chains from 0 to M, best score square)
PINS = {
    "A3 (4,3,3)/F2": (79547696, "1160"),
    "D4 (2,2,2,4)/F2": (51698672, "80/3"),
    "A3 (4,4,3)/F2": (3797852992, "1892"),
    "A3 (4,4,4)/F2": (57315509208, "2016"),
    "Kron (1,3)/F97": (1921004, "16"),
    "D4 (2,2,2,5)/F2": (2374096288, "88/3"),
    "A3 (5,4,4)/F2": (1400413004736, "1976"),
    "A3 (5,5,4)/F2": (31898469627184, "1512"),
    "A3 (5,5,5)/F2": (1269833077238784, "1350"),
}


def rung(name):
    """(representation, params) of a rung."""
    q, p, dims, seed, theta = RUNGS[name]
    rng, field = random.Random(seed), PrimeField(p)
    d = dict(zip(q.vertices, dims))
    maps = tuple(
        Matrix(field, d[t], d[s], tuple(
            tuple(rng.randrange(p) for _c in range(d[s])) for _r in range(d[t])
        ))
        for s, t in q.arrows
    )
    params = StabilityParams(dict(zip(q.vertices, theta)), dict.fromkeys(q.vertices, 1))
    return Representation(q, field, d, maps), params


def measure(name, dualised):
    """The counts and stage times of one rung, or of its dual, as a dict."""
    m, params = rung(name)
    if dualised:
        m, params = dual(m, params)
    t0 = time.perf_counter()
    lat = SubrepLattice(m, UNBOUNDED)
    t1 = time.perf_counter()
    # the containment build's seconds in _Shape.masks, filling point masks
    fill, masks = [0.0], quiver._Shape.masks

    def timed(shape, points):
        start = time.perf_counter()
        out = masks(shape, points)
        fill[0] += time.perf_counter() - start
        return out

    quiver._Shape.masks = timed
    below = lat._below
    t2 = time.perf_counter()
    quiver._Shape.masks = masks
    members, lower, first = kempf._chain_index_sets(lat)
    t3 = time.perf_counter()
    labels = lat.labels(params)
    best, _winner = kempf._kempf_search(lower, [labels[i] for i in first])
    t4 = time.perf_counter()
    chains = [1]
    for pre in lower[1:]:
        chains.append(sum(k * chains[c] for c, k in pre))
    return {
        "subreps": len(lat.subs),
        "strict inclusions": sum(b.bit_count() for b in below) - len(below),
        "classes": len(members),
        "chains": chains[-1],
        "best square": str(best),
        "enum s": round(t1 - t0, 3),
        "masks s": round(t2 - t1, 3),
        "fill s": round(fill[0], 3),
        "dag s": round(t3 - t2, 3),
        "search s": round(t4 - t3, 3),
        "peak rss MB": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(names) -> int:
    bad = 0
    for name in names or RUNGS:
        for side in ("", "dual"):
            out = subprocess.run(
                [sys.executable, __file__, "--child", name, side],
                check=True, capture_output=True, text=True,
            ).stdout
            got = json.loads(out)
            pinned = (got["chains"], got["best square"]) == PINS[name]
            print(f"{name:17} {side:4} {out.strip()}{'' if pinned else '  MISMATCH'}",
                  flush=True)
            bad += not pinned
    if bad:
        print(f"{bad} run(s) differ from their rung's pinned chains and best square")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(measure(sys.argv[2], sys.argv[3] == "dual")))
    else:
        sys.exit(main(sys.argv[1:]))
