"""Change of basis, a relation that needs no oracle of either route.

For g in the product of GL(d_v), g . M has each arrow's map A from s to
t replaced by g_t A g_s^-1 (oracles.act), and g carries the subreps of M
onto those of g . M, keeping every dimension vector.  So each route on
its own must give g . M's filtration as g applied to M's, the steps
compared as RREF spaces (oracles.apply), with the same semistability
verdict, Gamma and score square (Kempf, "Instability in invariant
theory", Ann. of Math. 108, 1978).  The Kempf route's verdict is its own
search's: kempf_filtration raises SemistableInputError when no chain
scores above 0.  Neither route is assumed to agree with the other.
"""

import random

import pytest

from quiverstab import Matrix, SubrepLattice, hn_filtration, is_semistable

from conftest import F2, F3
from oracles import act, apply, inverse
from test_duality import FAMILIES, kempf_route, random_problem

REPS = 32


def random_invertible(rng, field, n):
    while True:
        a = Matrix.from_rows(
            field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)], ncols=n
        )
        try:
            inverse(a)
        except ValueError:
            continue
        return a


def moved(g, f):
    """g applied to each step of the filtration f."""
    return [{v: apply(g[v], s.spaces[v]) for v in s.spaces} for s in f.steps]


def test_inverse_undoes_the_matrix():
    rng = random.Random("inverse")
    for field, n in [(F2, 4), (F3, 3)]:
        a = random_invertible(rng, field, n)
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert tuple(inverse(a).apply_to(a.apply_to(e)) for e in eye) == eye


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_each_route_commutes_with_change_of_basis(family):
    quiver, field, dims = family
    rng = random.Random(f"change of basis {quiver.vertices} {dims} {field.p}")
    unstable = 0
    for _ in range(REPS):
        m, params = random_problem(rng, quiver, field, dims)
        g = {v: random_invertible(rng, field, m.dims[v]) for v in quiver.vertices}
        gm = act(g, m)
        lat, lat_g = SubrepLattice(m), SubrepLattice(gm)
        assert is_semistable(lat_g, params) == is_semistable(lat, params)
        hn, hn_g = hn_filtration(lat, params), hn_filtration(lat_g, params)
        assert [s.spaces for s in hn_g.steps] == moved(g, hn)
        kf, kf_g = kempf_route(lat, params), kempf_route(lat_g, params)
        assert (kf is None) == (kf_g is None)
        if kf is None:
            continue
        unstable += 1
        assert [s.spaces for s in kf_g[0].steps] == moved(g, kf[0])
        assert kf_g[1:] == kf[1:]
    # every D4 rep drawn is unstable; the other families meet both verdicts
    assert unstable > 0
