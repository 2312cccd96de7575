"""Both routes sort every representation of a few small families by HN
type; the counts per type must equal Reineke's closed form, which knows
neither route.  Enumeration, which both routes read, is checked the same
way: over every representation of a family, the subreps of each
dimension vector must add up to a closed-form count, and so must the
pairs of nested subreps that the containment table records."""

from collections import Counter

import pytest

from quiverstab import (
    Quiver,
    SemistableInputError,
    SubrepLattice,
    enumerate_subreps,
    hn_filtration,
    kempf_filtration,
)

from conftest import A3, F2, F3, params_for
from oracles import (
    containment_pairs_by_formula,
    every_rep,
    hn_type_counts,
    subrep_counts_by_formula,
)

LOOP_PLUS_ARROW = Quiver(("v0", "v1"), (("v0", "v0"), ("v0", "v1")))
CYCLE2 = Quiver(("v0", "v1"), (("v0", "v1"), ("v1", "v0")))

# (quiver, field, dims, [(theta, sigma), ...])
SWEEPS = {
    "loop-plus-arrow-21-F2": (
        LOOP_PLUS_ARROW, F2, (2, 1),
        [((1, 0), (1, 1)), ((-1, -1), (2, 1)), ((2, -1), (1, 2))],
    ),
    "cycle2-21-F3": (
        CYCLE2, F3, (2, 1),
        # theta = 0: every rep is semistable
        [((1, 0), (1, 1)), ((-1, 2), (2, 1)), ((0, 0), (1, 1))],
    ),
    "a3-221-F2": (
        A3, F2, (2, 2, 1),
        [((1, 0, -1), (1, 1, 1)), ((2, -1, 0), (1, 2, 1)), ((-1, -2, -2), (2, 2, 1))],
    ),
}


def hn_type(f, q):
    return tuple(tuple(d[v] for v in q.vertices) for d in f.quotient_dims())


def hn_type_counts_of_both_routes(q, field, dims, grid):
    """For each (theta, sigma) of grid: (Reineke's counts by HN type, the
    counts through hn_filtration, the counts through kempf_filtration),
    over every rep of the family."""
    params = [params_for(q, theta, sigma) for theta, sigma in grid]
    by_hn = [Counter() for _ in params]
    by_kempf = [Counter() for _ in params]
    for m in every_rep(q, field, dims):
        lat = SubrepLattice(m)  # one lattice per rep, read for every theta
        for p, hn_counts, kempf_counts in zip(params, by_hn, by_kempf):
            hn_counts[hn_type(hn_filtration(lat, p), q)] += 1
            try:
                kempf_counts[hn_type(kempf_filtration(lat, p)[0], q)] += 1
            except SemistableInputError:
                kempf_counts[(dims,)] += 1
    return [
        (hn_type_counts(q, dims, p, field.p), dict(hn_counts), dict(kempf_counts))
        for p, hn_counts, kempf_counts in zip(params, by_hn, by_kempf)
    ]


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS.keys())
def test_hn_types_of_both_routes_match_the_counting_formula(sweep):
    for expected, by_hn, by_kempf in hn_type_counts_of_both_routes(*sweep):
        assert by_hn == expected
        assert by_kempf == expected


# (quiver, field, dims) for the closed-form count of subreps
SUBREP_COUNTS = {
    "loop-plus-arrow-21-F3": (LOOP_PLUS_ARROW, F3, (2, 1)),
    "cycle2-22-F2": (CYCLE2, F2, (2, 2)),
    "one-loop-3-F2": (Quiver(("v",), (("v", "v"),)), F2, (3,)),
    "two-loops-2-F2": (Quiver(("v",), (("v", "v"),) * 2), F2, (2,)),
}


def subrep_counts(q, field, dims) -> dict:
    """The subreps that enumerate_subreps finds, by dimension vector,
    summed over every rep of the family."""
    found = Counter()
    for m in every_rep(q, field, dims):
        found.update(
            tuple(s.spaces[v].dim for v in q.vertices) for s in enumerate_subreps(m)
        )
    return dict(found)


@pytest.mark.parametrize("family", SUBREP_COUNTS.values(), ids=SUBREP_COUNTS.keys())
def test_subrep_counts_match_the_closed_form(family):
    """Summed over every rep of the family, the subreps of each dimension
    vector that enumerate_subreps finds equal the closed-form count."""
    q, field, dims = family
    assert subrep_counts(q, field, dims) == subrep_counts_by_formula(q, dims, field.p)


# (quiver, field, dims) for the closed-form count of nested pairs
CONTAINMENT_PAIRS = {
    "cycle2-22-F2": (CYCLE2, F2, (2, 2)),
    "loop-plus-arrow-21-F3": (LOOP_PLUS_ARROW, F3, (2, 1)),
    "kronecker2-12-F3": (Quiver.kronecker(2), F3, (1, 2)),
    "a3-121-F2": (A3, F2, (1, 2, 1)),
}


def containment_pair_counts(q, field, dims) -> dict:
    """The pairs U1 <= U2 of subreps that the lattice's containment table
    records, by (dimension vector of U1, of U2), summed over every rep of
    the family."""
    found = Counter()
    for m in every_rep(q, field, dims):
        lat = SubrepLattice(m)
        n = len(lat.subs)
        found.update(
            (lat.dims[i], lat.dims[j])
            for j in range(n) for i in range(n) if lat.contains(j, i)
        )
    return dict(found)


@pytest.mark.parametrize(
    "family", CONTAINMENT_PAIRS.values(), ids=CONTAINMENT_PAIRS.keys()
)
def test_containment_pairs_match_the_closed_form(family):
    q, field, dims = family
    assert containment_pair_counts(q, field, dims) == containment_pairs_by_formula(
        q, dims, field.p
    )
