"""Both routes sort every representation of a few small families by HN
type; the counts per type must equal Reineke's closed form, which knows
neither route."""

import itertools
from collections import Counter

import pytest

from quiverstab import (
    Matrix,
    Quiver,
    Representation,
    SemistableInputError,
    SubrepLattice,
    hn_filtration,
    kempf_filtration,
)

from conftest import A3, F2, F3, params_for
from oracles import hn_type_counts

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


def every_rep(q, field, dims):
    d = dict(zip(q.vertices, dims))
    shapes = [(d[tgt], d[src]) for src, tgt in q.arrows]
    entries = [range(field.p)] * sum(r * c for r, c in shapes)
    for flat in itertools.product(*entries):
        maps, k = [], 0
        for r, c in shapes:
            rows = tuple(tuple(flat[k + i * c : k + (i + 1) * c]) for i in range(r))
            maps.append(Matrix(field, r, c, rows))
            k += r * c
        yield Representation(q, field, d, tuple(maps))


def hn_type(f, q):
    return tuple(tuple(d[v] for v in q.vertices) for d in f.quotient_dims())


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS.keys())
def test_hn_types_of_both_routes_match_the_counting_formula(sweep):
    q, field, dims, grid = sweep
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
    for p, hn_counts, kempf_counts in zip(params, by_hn, by_kempf):
        expected = hn_type_counts(q, dims, p, field.p)
        assert dict(hn_counts) == expected
        assert dict(kempf_counts) == expected
