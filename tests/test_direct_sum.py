"""Direct sums, a relation that needs no oracle of either route.

The HN type of M (+) N, the dimension vectors of its quotients, is the
merge of the types of M and N ordered by slope, the parts of M and of N
with one slope summed (Reineke, "The Harder-Narasimhan system in quantum
groups and cohomology of quiver moduli", Invent. Math. 152, 2003).  Each
route on its own must give that merge from its own types of M and N: the
HN recursion, and the Kempf search with its own semistability verdict.
Neither route is assumed to agree with the other.
"""

import random

import pytest

from quiverstab import (
    Quiver,
    SubrepLattice,
    hn_filtration,
    is_semistable,
    kempf_filtration,
    kempf_semistability,
    slope,
)

from conftest import A3, F2, F3
from oracles import direct_sum
from test_counting_oracle import CYCLE2
from test_duality import random_problem

# id -> (quiver, field, dimension vector of each summand)
FAMILIES = {
    "A3-111-F2": (A3, F2, (1, 1, 1)),
    "A3-111-F3": (A3, F3, (1, 1, 1)),
    "A3-121-F2": (A3, F2, (1, 2, 1)),
    "cycle2-11-F3": (CYCLE2, F3, (1, 1)),
    "cycle2-21-F2": (CYCLE2, F2, (2, 1)),
    "kron2-11-F3": (Quiver.kronecker(2), F3, (1, 1)),
    "kron2-12-F2": (Quiver.kronecker(2), F2, (1, 2)),
}
PAIRS = 30


def hn_type(m, params):
    lat = SubrepLattice(m)
    return [tuple(d.values()) for d in hn_filtration(lat, params).quotient_dims()]


def kempf_type(m, params):
    lat = SubrepLattice(m)
    if kempf_semistability(lat, params):
        return [tuple(m.dims.values())]
    f, _gamma, _square = kempf_filtration(lat, params)
    return [tuple(d.values()) for d in f.quotient_dims()]


def merged(first, second, vertices, params):
    """The parts of two types, those of one slope summed, by slope
    from the highest down."""
    by_slope = {}
    for part in first + second:
        mu = slope(dict(zip(vertices, part)), params)
        held = by_slope.get(mu, (0,) * len(part))
        by_slope[mu] = tuple(a + b for a, b in zip(held, part))
    return [by_slope[mu] for mu in sorted(by_slope, reverse=True)]


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_direct_sum_type_is_the_slope_ordered_merge(family):
    quiver, field, dims = family
    rng = random.Random(f"direct sum {quiver.vertices} {dims} {field.p}")
    unstable = 0
    for _ in range(PAIRS):
        m, params = random_problem(rng, quiver, field, dims)
        n, _other = random_problem(rng, quiver, field, dims)
        both = direct_sum(m, n)
        for route in (hn_type, kempf_type):
            expected = merged(route(m, params), route(n, params), quiver.vertices, params)
            assert route(both, params) == expected, (route.__name__, m, n, params)
        unstable += not is_semistable(SubrepLattice(both), params)
    assert 0 < unstable < PAIRS
