"""Time per enumerate_subspaces call on a ladder of looped vertices.

    python tests/ladder.py [--rounds 15]

Each rung is one vertex F_p^n with its loops, MAPS loop sets per rung:
seeded uniform random loops (every entry uniform in F_p) on F2^4, F3^3,
F5^3, F3^4, F2^5, F3^5 and F5^4, and the identity, zero and shift loops
and no loop at n = 5 over F3.  A round calls enumerate_subspaces once on
each loop set of every rung, rung after rung; the script prints, per
rung, the median over the rounds of the mean time per call in ms, and
the subspaces kept per round.  The last line is the same as one JSON
object {rung: ms per call}.  It takes 10-15 s.
"""

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quiverstab import Matrix, PrimeField, enumerate_subspaces  # noqa: E402

MAPS = 8  # loop sets per rung


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
    times = {name: [] for name in ladder}
    kept = {}
    for _ in range(args.rounds):
        for name, (n, field, loop_sets) in ladder.items():
            start = time.perf_counter()
            kept[name] = sum(
                len(enumerate_subspaces(n, field, maps=maps)) for maps in loop_sets
            )
            times[name].append((time.perf_counter() - start) / len(loop_sets))
    medians = {
        name: round(statistics.median(t) * 1000, 4) for name, t in times.items()
    }
    for name, ms in medians.items():
        print(f"{name:16} {ms:9.3f} ms per call  {kept[name]:6} kept per round")
    print(json.dumps(medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
