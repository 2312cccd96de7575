"""Time per enumerate_subspaces call on a ladder of looped vertices.

    python tests/ladder.py [--rounds 15]

Each rung is one vertex F_p^n with its loops, MAPS loop sets per rung:
seeded uniform random loops (every entry uniform in F_p) on F2^4, F3^3,
F5^3, F3^4, F2^5, F3^5 and F5^4, and the identity, zero and shift loops
and no loop at n = 5 over F3.  First each rung's first loop set is
timed once on an empty table of RREF patterns (linalg._PATTERNS), the
cold call, which fills the table for its (n, p), the no-loop rung's as
every other's.  Then a round calls enumerate_subspaces once on each loop
set of every rung, rung after rung, on the table the calls before filled.
The script prints, per rung, the cold call, the median over the rounds
of the mean time per call, both in ms, and the subspaces kept per round.
The last line is the same as one JSON object {rung: {"cold_ms": ...,
"warm_ms": ...}}.  It exits 1 when a rung keeps other than its pinned
count of subspaces in some round.  It takes 10-15 s.
"""

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quiverstab import Matrix, PrimeField, enumerate_subspaces, linalg  # noqa: E402

MAPS = 8  # loop sets per rung

# rung -> subspaces its MAPS loop sets keep in one round, all together
KEPT = {
    "random F2^4": 88,
    "random F3^3": 42,
    "random F5^3": 40,
    "random F3^4": 39,
    "random F2^5": 124,
    "random F3^5": 82,
    "random F5^4": 36,
    "identity F3^5": 21312,
    "zero F3^5": 21312,
    "shift F3^5": 48,
    "no loop F3^5": 21312,
}


def uniform(rng, p, n):
    return Matrix.from_rows(
        PrimeField(p), [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    )


def rungs():
    """{name: (n, field, [loop tuple, ...])}."""
    out = {}
    for p, n in ((2, 4), (3, 3), (5, 3), (3, 4), (2, 5), (3, 5), (5, 4)):
        rng = random.Random(100 * p + n)
        out[f"random F{p}^{n}"] = (
            n, PrimeField(p), [(uniform(rng, p, n),) for _ in range(MAPS)]
        )
    f3 = PrimeField(3)
    fixed = {
        "identity": [[int(i == j) for j in range(5)] for i in range(5)],
        "zero": [[0] * 5 for _ in range(5)],
        "shift": [[int(j == i + 1) for j in range(5)] for i in range(5)],
    }
    for name, rows in fixed.items():
        out[f"{name} F3^5"] = (5, f3, [(Matrix.from_rows(f3, rows),)] * MAPS)
    out["no loop F3^5"] = (5, f3, [()] * MAPS)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    ladder = rungs()
    cold = {}
    for name, (n, field, loop_sets) in ladder.items():
        linalg._PATTERNS.clear()
        start = time.perf_counter()
        enumerate_subspaces(n, field, maps=loop_sets[0])
        cold[name] = round((time.perf_counter() - start) * 1000, 4)
    times = {name: [] for name in ladder}
    off = set()
    for _ in range(args.rounds):
        for name, (n, field, loop_sets) in ladder.items():
            start = time.perf_counter()
            kept = sum(
                len(enumerate_subspaces(n, field, maps=maps)) for maps in loop_sets
            )
            times[name].append((time.perf_counter() - start) / len(loop_sets))
            if kept != KEPT[name]:
                off.add(f"{name} kept {kept} subspaces in a round, pinned {KEPT[name]}")
    warm = {
        name: round(statistics.median(t) * 1000, 4) for name, t in times.items()
    }
    for name in ladder:
        print(f"{name:16} cold {cold[name]:9.3f} ms  warm {warm[name]:9.3f} ms per call"
              f"  {KEPT[name]:6} kept per round")
    print(json.dumps({name: {"cold_ms": cold[name], "warm_ms": warm[name]} for name in ladder}))
    for line in sorted(off):
        print(line, file=sys.stderr)
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
