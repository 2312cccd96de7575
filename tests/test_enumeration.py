"""Subrepresentations come from a join over per-arrow closure masks; they
must be exactly those of the whole candidate product, in the same order."""

import itertools
import random
from collections import Counter

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
    is_subrep,
    linalg,
    quiver,
)

from conftest import F2, F3
from oracles import (
    canonical_key,
    closed_by_images,
    every_rep,
    submodules_by_product,
    span,
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
    # and planes, with 8 points each, list their own against up to 16
    # images of the 8 points of F7^2 under two arrows
    "kron2-23-f7": (Quiver.kronecker(2), F7, (2, 3)),
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
def test_join_equals_product(shape, empty_shapes):
    # an empty shape table: each point mask is filled by this test's reps,
    # not by whichever test ran before it
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


# id -> (quiver, field, dims in vertex order), every rep of each
CLOSURE_FAMILIES = {
    "loop-plus-arrow-21-F2": (LOOP_BEFORE_ARROW, F2, (2, 1)),
    "cycle2-22-F2": (CYCLE2, F2, (2, 2)),
    "kronecker2-12-F3": (Quiver.kronecker(2), F3, (1, 2)),
    "triangle-201-F2": (TRIANGLE, F2, (2, 0, 1)),
}


@pytest.mark.parametrize(
    "family", CLOSURE_FAMILIES.values(), ids=CLOSURE_FAMILIES.keys()
)
def test_is_subrep_equals_the_image_span_rule(family):
    """On every tuple of the per-vertex subspace product, for every rep
    of the family, is_subrep's rule (each basis row's image lies in the
    target) gives the verdict of building each arrow's image span by
    elimination and testing that it lies in the target."""
    q, field, dims = family
    lists = [enumerate_subspaces(d, field) for d in dims]
    verdicts = Counter()
    for m in every_rep(q, field, dims):
        for combo in itertools.product(*lists):
            spaces = dict(zip(q.vertices, combo))
            verdict = is_subrep(m, spaces)
            assert verdict == closed_by_images(m, spaces)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_kronecker_1_3_over_f97():
    q = Quiver.kronecker(1)
    m = Representation(
        q, F97, {"v0": 1, "v1": 3}, (Matrix.from_rows(F97, [[1], [2], [3]]),)
    )
    subs = enumerate_subreps(m)
    assert len(subs) == 19116
    assert keys(subs) == keys(subreps_by_product(m))


def test_kronecker_1_3_over_f97_tests_each_target_once(monkeypatch, empty_shapes):
    """One image point (|Q| = 1): no target has fewer points than that
    but the zero one, so the shape lists no points and makes at most one
    membership test per target; enumerating again, the shape has the
    point's mask and lists and tests nothing."""
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
    calls.update(tests=0, listed=0)
    assert len(enumerate_subreps(m)) == 19116
    assert calls == {"tests": 0, "listed": 0}


def test_one_list_per_vertex_shape(monkeypatch, empty_shapes):
    """Vertices share a subspace list iff they have the same dimension
    and the same loop matrices; sharing changes no subrep.  The list of
    a loop-free shape is kept for the next problem, that of a looped
    shape is not."""
    built = []

    def counted(n, field, maps=()):
        built.append((n, maps))
        return enumerate_subspaces(n, field, maps)

    monkeypatch.setattr(quiver, "enumerate_subspaces", counted)
    shift = Matrix.from_rows(F3, [[0, 1], [0, 0]])
    swap = Matrix.from_rows(F3, [[0, 1], [1, 0]])
    arrow = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    # (quiver, maps, lists built on an empty table, looped lists built again)
    cases = [
        (CYCLE2, (arrow, arrow), 1, 0),
        (LOOP_BEFORE_ARROW, (shift, arrow), 2, 1),
        (TWO_LOOPED, (shift, swap, arrow), 2, 2),
        (TWO_LOOPED, (shift, shift, arrow), 1, 1),
    ]
    for q, maps, lists, looped in cases:
        m = Representation(q, F3, {"a": 2, "b": 2}, maps)
        empty_shapes.clear()
        built.clear()
        assert keys(enumerate_subreps(m)) == keys(subreps_by_product(m))
        assert len(built) == lists
        built.clear()
        assert keys(enumerate_subreps(m)) == keys(subreps_by_product(m))
        assert len(built) == looped and all(loops for _n, loops in built)


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


def counted_images(monkeypatch) -> tuple:
    """Patch linalg._Images, which quiver shares, to record each instance
    made and each (instance, row) it maps; returns (made, mapped)."""
    made, mapped = [], Counter()
    init, missing = linalg._Images.__init__, linalg._Images.__missing__

    def counted_init(image, m):
        made.append((m, image))
        init(image, m)

    def counted_missing(image, row):
        mapped[id(image), row] += 1
        return missing(image, row)

    monkeypatch.setattr(linalg._Images, "__init__", counted_init)
    monkeypatch.setattr(linalg._Images, "__missing__", counted_missing)
    return made, mapped


def test_each_row_is_mapped_once_per_map(monkeypatch, empty_patterns):
    """enumerate_subspaces maps rows through one _Images per map, for all
    dimensions and patterns, and multiplies each distinct row once."""
    made, mapped = counted_images(monkeypatch)
    rng = random.Random(25)
    for field, n in ((F2, 4), (F3, 4), (F5, 3)):
        for count in (1, 2):
            maps = random_maps(rng, Quiver(("v",), (("v", "v"),) * count), field, (n,), 0.6)
            made.clear()
            mapped.clear()
            got = enumerate_subspaces(n, field, maps.arrow_maps)
            assert len(got) >= 2
            assert [m for m, _image in made] == list(maps.arrow_maps)
            assert set(mapped.values()) == {1}
            assert len(mapped) == sum(len(image) for _m, image in made)


def test_loops_and_arrows_share_one_normalized_image(monkeypatch):
    """One matrix as the loop at a and as the arrow a -> b: both map rows
    through _Images, and each row's image is m·row scaled so that its
    first non-zero entry is 1, the basis row of the line it spans, or
    None for 0."""
    made, _mapped = counted_images(monkeypatch)
    rng = random.Random(25)
    for field in (F3, F5, F7):
        for density in (0.3, 0.6, 1.0):
            m = random_maps(rng, LOOP_BEFORE_ARROW, field, (2, 2), density)
            m = Representation(m.quiver, field, m.dims, (m.arrow_maps[0],) * 2)
            made.clear()
            assert keys(enumerate_subreps(m)) == keys(subreps_by_product(m))
            (loop, at_loop), (arrow, at_arrow) = made
            assert loop is arrow is m.arrow_maps[0]
            common = at_loop.keys() & at_arrow.keys()
            assert common and all(at_loop[row] == at_arrow[row] for row in common)
            for image in (at_loop, at_arrow):
                for row, im in image.items():
                    line = span(field, 2, [loop.apply_to(row)]).basis
                    assert im == (line[0] if line else None)
