"""Both routes sort every representation of a few small families by HN
type; the counts per type must equal Reineke's closed form, which knows
neither route.  Enumeration, which both routes read, is checked the same
way: over every representation of a family, the subreps of each
dimension vector must add up to a closed-form count, and so must the
pairs of nested subreps that the containment table records and the
chains of subreps that the Kempf search's inclusion DAG holds."""

from collections import Counter

import pytest

from quiverstab import (
    EnumerationBudgetError,
    Quiver,
    SemistableInputError,
    SubrepLattice,
    enumerate_subreps,
    hn_filtration,
    kempf,
    kempf_filtration,
)

from conftest import A3, F2, F3, params_for
from oracles import (
    containment_pairs_by_formula,
    every_rep,
    hn_type_counts,
    strict_chain_counts_by_formula,
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


# (quiver, field, dims) for the closed-form count of strictly increasing chains
STRICT_CHAINS = {
    "cycle2-22-F2": (CYCLE2, F2, (2, 2)),
    "a3-121-F2": (A3, F2, (1, 2, 1)),
    "kronecker2-12-F3": (Quiver.kronecker(2), F3, (1, 2)),
    "loop-plus-arrow-21-F3": (LOOP_PLUS_ARROW, F3, (2, 1)),
}


def strict_chain_counts(q, field, dims):
    """The chains 0 < U1 < ... < M that the Kempf search counts on the
    quotient of the inclusion DAG (kempf._chain_index_sets), by the
    sequence of dimension vectors of U1, ..., Uk, summed over every rep
    of the family: chains of classes, each (class, count) edge counted
    count times; and the sum of the exact chain counts that
    EnumerationBudgetError reports when each lattice's budget is one
    below its count."""
    found = Counter()
    reported = 0
    for m in every_rep(q, field, dims):
        lat = SubrepLattice(m)
        _members, lower, first = kempf._chain_index_sets(lat)
        # ending[c]: the chains from 0 to a member of class c, by the
        # dimension vectors of their nodes after 0, c's included
        ending = [Counter({(): 1})]
        for pre, j in zip(lower[1:], first[1:]):
            here = Counter()
            for i, k in pre:
                for seq, n in ending[i].items():
                    here[seq + (lat.dims[j],)] += k * n
            ending.append(here)
        chains = {seq[:-1]: n for seq, n in ending[-1].items()}
        found.update(chains)
        lat.budget = sum(chains.values()) - 1
        try:
            kempf._chain_index_sets(lat)
        except EnumerationBudgetError as exc:
            reported += exc.count
    return dict(found), reported


@pytest.mark.parametrize("family", STRICT_CHAINS.values(), ids=STRICT_CHAINS.keys())
def test_strict_chains_match_the_closed_form(family):
    """Summed over every rep of the family, the chains of each sequence of
    dimension vectors, and the chain counts the budget reports, equal the
    closed-form count."""
    q, field, dims = family
    found, reported = strict_chain_counts(q, field, dims)
    expected = strict_chain_counts_by_formula(q, dims, field.p)
    assert found == expected
    assert reported == sum(expected.values())
