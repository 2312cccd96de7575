"""Subrepresentations come from a join over per-arrow closure masks; they
must be exactly those of the whole candidate product, in the same order."""

import random

import pytest

from quiverstab import (
    Matrix,
    PrimeField,
    Quiver,
    Representation,
    Subspace,
    SubrepLattice,
    enumerate_subreps,
    enumerate_subspaces,
    quiver,
)

from conftest import F2, F3
from oracles import (
    canonical_key,
    submodules_by_product,
    subreps_by_product,
    zero_matrix,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
F97 = PrimeField(97)

D4_IN = Quiver(("a", "b", "c", "z"), (("a", "z"), ("b", "z"), ("c", "z")))
D4_OUT = Quiver(("z", "a", "b", "c"), (("z", "a"), ("z", "b"), ("z", "c")))
CYCLE3 = Quiver(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
A3_AGAINST = Quiver(("a", "b", "c"), (("c", "b"), ("b", "a")))
A3_INTO_MIDDLE = Quiver(("a", "b", "c"), (("a", "b"), ("c", "b")))
TRIANGLE = Quiver(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
CYCLE2 = Quiver(("a", "b"), (("a", "b"), ("b", "a")))
LOOP_AFTER_ARROW = Quiver(("a", "b"), (("a", "b"), ("b", "b")))
LOOP_BEFORE_ARROW = Quiver(("a", "b"), (("a", "a"), ("a", "b")))
TWO_LOOPED = Quiver(("a", "b"), (("a", "a"), ("b", "b"), ("a", "b")))

# id -> (quiver, field, dims in vertex order)
SHAPES = {
    "one-loop": (Quiver(("v",), (("v", "v"),)), F2, (4,)),
    "two-loops": (Quiver(("v",), (("v", "v"), ("v", "v"))), F3, (3,)),
    "loop-after-arrow": (LOOP_AFTER_ARROW, F3, (2, 2)),
    "cycle2": (CYCLE2, F3, (2, 2)),
    "cycle3": (CYCLE3, F2, (2, 2, 2)),
    "kronecker3": (Quiver.kronecker(3), F3, (2, 2)),
    "d4-inwards": (D4_IN, F2, (2, 1, 1, 3)),
    "d4-outwards": (D4_OUT, F2, (3, 2, 1, 1)),
    "a3-against-order": (A3_AGAINST, F3, (2, 2, 2)),
    "a3-into-middle": (A3_INTO_MIDDLE, F3, (2, 2, 2)),
    "zero-dim-vertex": (TRIANGLE, F3, (2, 0, 2)),
    "isolated-vertex": (Quiver(("a", "b", "c"), (("a", "b"),)), F2, (2, 2, 2)),
    # over p >= 5 a target lists its own points when it has fewer than the
    # images into its vertex (lines, here), and tests the images otherwise
    "cycle2-f7": (CYCLE2, F7, (2, 2)),
    "loop-after-arrow-f5": (LOOP_AFTER_ARROW, F5, (3, 2)),
    "line-into-space-f7": (Quiver.kronecker(1), F7, (1, 3)),
    # vertices of one dimension share a subspace list only when their
    # loops are equal: a looped and an unlooped vertex must not share,
    "loop-beside-plain": (LOOP_BEFORE_ARROW, F2, (3, 3)),
    # nor two vertices with different loops; over F2 the loops are both
    # zero (density 0) or both all-ones (density 1), equal, and may share
    "two-looped-vertices": (TWO_LOOPED, F3, (2, 2)),
    "two-looped-vertices-f2": (TWO_LOOPED, F2, (2, 2)),
}


def random_maps(rng, quiver, field, dims, density):
    """One matrix per arrow, each entry non-zero with the given chance."""
    d = dict(zip(quiver.vertices, dims))
    maps = []
    for src, tgt in quiver.arrows:
        rows = tuple(
            tuple(
                rng.randrange(1, field.p) if rng.random() < density else 0
                for _ in range(d[src])
            )
            for _ in range(d[tgt])
        )
        maps.append(Matrix(field, d[tgt], d[src], rows))
    return Representation(quiver, field, d, tuple(maps))


def keys(subs):
    return [canonical_key(s) for s in subs]


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_join_equals_product(shape):
    quiver, field, dims = shape
    rng = random.Random(4)
    # density 0 gives the zero maps; sparse maps have large lattices
    for density in (0.0, 0.3, 0.3, 0.6, 0.6, 1.0, 1.0):
        m = random_maps(rng, quiver, field, dims, density)
        assert keys(enumerate_subreps(m)) == keys(subreps_by_product(m))


def by_vertex(subs):
    """Each subrep as its sorted (vertex name, basis) pairs, one entry
    per subrep, in a canonical order of its own."""
    return sorted(
        tuple(sorted((v, s.basis) for v, s in sub.spaces.items())) for sub in subs
    )


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_join_in_either_vertex_order(shape):
    """Reversing the vertex order turns every arrow's forward mask into a
    transposed one and back; the subreps must stay the same."""
    quiver, field, dims = shape
    reversed_order = Quiver(quiver.vertices[::-1], quiver.arrows)
    rng = random.Random(4)
    for density in (0.0, 0.3, 0.3, 0.6, 0.6, 1.0, 1.0):
        m = random_maps(rng, quiver, field, dims, density)
        r = Representation(reversed_order, field, m.dims, m.arrow_maps)
        assert by_vertex(enumerate_subreps(r)) == by_vertex(enumerate_subreps(m))


def test_kronecker_1_3_over_f97():
    q = Quiver.kronecker(1)
    m = Representation(
        q, F97, {"v0": 1, "v1": 3}, (Matrix.from_rows(F97, [[1], [2], [3]]),)
    )
    subs = enumerate_subreps(m)
    assert len(subs) == 19116
    assert keys(subs) == keys(subreps_by_product(m))


def test_kronecker_1_3_over_f97_tests_each_target_once(monkeypatch):
    """One image point (|Q| = 1): no target has fewer points than that
    but the zero one, so the memo lists no points and makes at most one
    membership test per target."""
    calls = {"tests": 0, "listed": 0}
    contains_vector, points = Subspace.contains_vector, Subspace.points

    def counted_contains_vector(s, vec):
        calls["tests"] += 1
        return contains_vector(s, vec)

    def counted_points(s):
        listed = points(s)
        calls["listed"] += len(listed)
        return listed

    monkeypatch.setattr(Subspace, "contains_vector", counted_contains_vector)
    monkeypatch.setattr(Subspace, "points", counted_points)
    m = Representation(
        Quiver.kronecker(1), F97, {"v0": 1, "v1": 3},
        (Matrix.from_rows(F97, [[1], [2], [3]]),),
    )
    assert len(enumerate_subreps(m)) == 19116
    assert 0 < calls["tests"] <= 19116
    assert calls["listed"] == 0


def test_one_list_per_vertex_shape(monkeypatch):
    """Vertices share a subspace list iff they have the same dimension
    and the same loop matrices; sharing changes no subrep."""
    built = []

    def counted(n, field, k=None, maps=()):
        built.append((n, maps))
        return enumerate_subspaces(n, field, k, maps)

    monkeypatch.setattr(quiver, "enumerate_subspaces", counted)
    shift = Matrix.from_rows(F3, [[0, 1], [0, 0]])
    swap = Matrix.from_rows(F3, [[0, 1], [1, 0]])
    arrow = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    cases = [
        (CYCLE2, (arrow, arrow), 1),
        (LOOP_BEFORE_ARROW, (shift, arrow), 2),
        (TWO_LOOPED, (shift, swap, arrow), 2),
        (TWO_LOOPED, (shift, shift, arrow), 1),
    ]
    for q, maps, lists in cases:
        m = Representation(q, F3, {"a": 2, "b": 2}, maps)
        built.clear()
        assert keys(enumerate_subreps(m)) == keys(subreps_by_product(m))
        assert len(built) == lists


@pytest.mark.parametrize("h, field, dims", [(1, F3, (2, 2)), (2, F3, (2, 2)),
                                            (3, F2, (2, 3)), (1, F5, (1, 3))])
def test_submodules_equal_product(h, field, dims):
    rng = random.Random(h)
    dv, dw = dims
    for density in (0.0, 0.5, 1.0):
        maps = tuple(
            random_maps(rng, Quiver.kronecker(1), field, dims, density).arrow_maps[0]
            for _ in range(h)
        )
        m = Representation(Quiver.kronecker(h), field, {"v0": dv, "v1": dw}, maps)
        got = SubrepLattice(m).subs
        assert [s.spaces for s in got] == [s.spaces for s in submodules_by_product(m)]


def test_quiver_longer_than_the_recursion_limit():
    n = 1200
    vertices = tuple(f"v{i}" for i in range(n))
    q = Quiver(vertices, tuple(zip(vertices, vertices[1:])))
    dims = {v: int(i < 2) for i, v in enumerate(vertices)}
    maps = tuple(
        Matrix.from_rows(F2, [[1]]) if i == 0 else zero_matrix(F2, dims[t], dims[s])
        for i, (s, t) in enumerate(q.arrows)
    )
    m = Representation(q, F2, dims, maps)
    subs = enumerate_subreps(m)
    assert len(subs) == 3  # 0, the second vertex alone, and m
    assert keys(subs) == keys(subreps_by_product(m))
