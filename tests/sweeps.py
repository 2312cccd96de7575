"""Exhaustive closed-form sweeps wider than the Tier-1 tests run.

    python tests/sweeps.py

Over every representation of each family below, both routes sort the
representations by HN type and the counts per type must equal Reineke's
closed form (tests/oracles.py::hn_type_counts).  On two families the
subreps of each dimension vector (k = 1) and the nested pairs U1 <= U2
that the containment table records (k = 2) must equal their closed-form
counts too; on one loop (3)/F3, over all 19,683 loops, the k = 1 counts
alone, which take in the 2-dimensional pattern whose row 0 the
enumeration tests first.  Each family prints one line with its time; the script
exits 1 if any count differs or the library raises on any family, 0
otherwise.  It takes a few tens of seconds.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from quiverstab import QuiverStabError, Quiver  # noqa: E402

from conftest import F2, F3  # noqa: E402
from oracles import containment_pairs_by_formula, subrep_counts_by_formula  # noqa: E402
from test_counting_oracle import (  # noqa: E402
    LOOP_PLUS_ARROW,
    containment_pair_counts,
    hn_type_counts_of_both_routes,
    subrep_counts,
)

D4 = Quiver(("a", "b", "c", "z"), (("a", "z"), ("b", "z"), ("c", "z")))

# (quiver, field, dims, [(theta, sigma), ...])
HN_SWEEPS = {
    "kronecker2-22-F3": (
        Quiver.kronecker(2), F3, (2, 2), [((1, 0), (1, 1)), ((2, 1), (1, 2))],
    ),
    "kronecker3-22-F2": (
        Quiver.kronecker(3), F2, (2, 2), [((1, 0), (1, 1)), ((2, 1), (1, 2))],
    ),
    "d4-1112-F3": (
        D4, F3, (1, 1, 1, 2),
        [((1, 1, 1, -1), (1, 1, 1, 1)), ((2, 1, 0, -1), (1, 2, 1, 1))],
    ),
    "loop-plus-arrow-22-F3": (
        LOOP_PLUS_ARROW, F3, (2, 2), [((1, 0), (1, 1)), ((2, 1), (1, 2))],
    ),
}

# (quiver, field, dims) for the k = 1 and k = 2 flag counts
FLAG_SWEEPS = {
    "d4-1112-F3": (D4, F3, (1, 1, 1, 2)),
    "kronecker2-22-F3": (Quiver.kronecker(2), F3, (2, 2)),
}

# (quiver, field, dims) for the k = 1 counts alone
SUBREP_SWEEPS = {
    "one-loop-3-F3": (Quiver(("v",), (("v", "v"),)), F3, (3,)),
}


def hn_sweep(q, field, dims, grid) -> bool:
    return all(
        by_hn == expected and by_kempf == expected
        for expected, by_hn, by_kempf in hn_type_counts_of_both_routes(
            q, field, dims, grid
        )
    )


def flag_sweep(q, field, dims) -> bool:
    subreps = subrep_counts(q, field, dims)
    pairs = containment_pair_counts(q, field, dims)
    return subreps == subrep_counts_by_formula(
        q, dims, field.p
    ) and pairs == containment_pairs_by_formula(q, dims, field.p)


def subrep_sweep(q, field, dims) -> bool:
    return subrep_counts(q, field, dims) == subrep_counts_by_formula(q, dims, field.p)


def main() -> int:
    runs = [(f"HN types {name}", hn_sweep, args) for name, args in HN_SWEEPS.items()]
    runs += [
        (f"k = 1, 2 {name}", flag_sweep, args) for name, args in FLAG_SWEEPS.items()
    ]
    runs += [
        (f"k = 1 {name}", subrep_sweep, args) for name, args in SUBREP_SWEEPS.items()
    ]
    failed = 0
    for label, sweep, args in runs:
        start = time.perf_counter()
        try:
            outcome = "ok" if sweep(*args) else "MISMATCH"
        except QuiverStabError as exc:
            outcome = f"RAISED {type(exc).__name__}: {exc}"
        failed += outcome != "ok"
        print(f"{label:32} {outcome} {time.perf_counter() - start:6.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
