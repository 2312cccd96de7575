"""Duality, a relation that needs no oracle of either route.

M* lives on the opposite quiver with transposed maps, and is taken at
-theta and the same sigma (oracles.dual).  Its subreps are the
annihilators of M's, and Ann(U) has the slope of M / U negated, so each
route on its own must give M*'s filtration as the annihilators of M's
in reverse order: the same semistability verdict, the Kempf route's read
off its own search, the quotient dimension vectors reversed, Gamma
reversed with its sign changed and an equal score square.  Neither route
is assumed to agree with the other.  Dualising
loop-plus-arrow points its arrow against vertex order, so enumeration's
transposed-mask path runs too.
"""

import random

import pytest

from quiverstab import (
    Matrix,
    Quiver,
    Representation,
    SemistableInputError,
    SubrepLattice,
    hn_filtration,
    is_semistable,
    kempf_filtration,
)

from conftest import A3, F2, F3, params_for
from oracles import annihilator, dual, zero_spaces
from test_counting_oracle import CYCLE2, LOOP_PLUS_ARROW
from test_enumeration import D4_IN

# id -> (quiver, field, dimension vector)
FAMILIES = {
    "A3-222-F2": (A3, F2, (2, 2, 2)),
    "D4-1112-F2": (D4_IN, F2, (1, 1, 1, 2)),
    "loop-plus-arrow-21-F2": (LOOP_PLUS_ARROW, F2, (2, 1)),
    "loop-plus-arrow-21-F3": (LOOP_PLUS_ARROW, F3, (2, 1)),
    "cycle2-22-F2": (CYCLE2, F2, (2, 2)),
    "kron2-12-F3": (Quiver.kronecker(2), F3, (1, 2)),
}
REPS = 56


def random_problem(rng, quiver, field, dims):
    """A rep with every map drawn at random, and theta drawn from [-2, 2]
    at each vertex, sigma = 1."""
    dims = dict(zip(quiver.vertices, dims))
    maps = tuple(
        Matrix.from_rows(
            field,
            [[rng.randrange(field.p) for _ in range(dims[src])] for _ in range(dims[tgt])],
            ncols=dims[src],
        )
        for src, tgt in quiver.arrows
    )
    theta = [rng.randint(-2, 2) for _ in quiver.vertices]
    return Representation(quiver, field, dims, maps), params_for(quiver, theta)


def kempf_route(lat, params):
    """The Kempf route on its own: None where its search finds no chain
    scoring above 0, else (filtration, gamma, score square)."""
    try:
        return kempf_filtration(lat, params)
    except SemistableInputError:
        return None


def annihilated(m, f):
    """The steps of M*'s filtration predicted from f, a filtration of M:
    the annihilators of f's steps below the whole, in reverse order."""
    below = [zero_spaces(m)] + [s.spaces for s in f.steps[:-1]]
    return [{v: annihilator(sp[v]) for v in sp} for sp in reversed(below)]


def assert_dual_filtration(m, f, f_dual):
    assert f_dual.quotient_dims() == f.quotient_dims()[::-1]
    assert [s.spaces for s in f_dual.steps] == annihilated(m, f)


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_dual_filtrations_are_the_annihilators_reversed(family):
    quiver, field, dims = family
    rng = random.Random(f"duality {quiver.vertices} {dims} {field.p}")
    unstable = 0
    for _ in range(REPS):
        m, params = random_problem(rng, quiver, field, dims)
        m_dual, params_dual = dual(m, params)
        lat, lat_dual = SubrepLattice(m), SubrepLattice(m_dual)
        assert is_semistable(lat_dual, params_dual) == is_semistable(lat, params)
        assert_dual_filtration(
            m, hn_filtration(lat, params), hn_filtration(lat_dual, params_dual)
        )
        kf, kf_dual = kempf_route(lat, params), kempf_route(lat_dual, params_dual)
        assert (kf_dual is None) == (kf is None)
        if kf is None:
            continue
        unstable += 1
        (f, gamma, square), (f_dual, gamma_dual, square_dual) = kf, kf_dual
        assert_dual_filtration(m, f, f_dual)
        assert list(gamma_dual) == [-g for g in reversed(gamma)]
        assert square_dual == square
    assert 0 < unstable < REPS
