"""The subspace list and point masks of a loop-free vertex shape depend
only on (dimension, prime), so one table per process shares them across
problems.  A table warmed by other problems must change no lattice and
no answer, and must keep no looped shape."""

import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from quiverstab import (
    Matrix,
    PrimeField,
    Quiver,
    Representation,
    Subspace,
    SubrepLattice,
    enumerate_subspaces,
)
from quiverstab.cli import parse_problem
from quiverstab.linalg import _Images

from test_enumeration import SHAPES, random_maps
from test_kempf_search import assert_lattice_searches_agree, random_params

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "problems"
PROBLEMS = sorted(p for p in PROBLEM_DIR.glob("*/*.json") if p.name != "expected.json")

F3 = PrimeField(3)
# id -> (dimension, field, loop matrices) of a vertex shape
MASK_SHAPES = {
    f"F{p}^3": (3, PrimeField(p), ()) for p in (2, 3, 5, 7)
} | {
    # diag(1, 1, 1, 2): the loop keeps the 56 sums of a subspace of the
    # first three coordinates and one of the last
    "F3^4-looped": (4, F3, (Matrix.from_rows(F3, [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]),)),
}


def lattice_of(path):
    """(lattice, params) of a committed problem file, its containment
    table built."""
    m, params = parse_problem(json.loads(path.read_text()))
    lat = SubrepLattice(m)
    lat._below
    return lat, params


def test_a_warm_table_changes_no_lattice(empty_shapes):
    cold = {}
    for path in PROBLEMS:
        empty_shapes.clear()
        lat, _params = lattice_of(path)
        cold[path] = (lat.subs, lat.dims, lat._below)
    empty_shapes.clear()
    rng = random.Random(18)
    # the first pass sees a table filled by the problems shuffled before
    # each one, the second a table every problem has filled
    for _pass in range(2):
        order = PROBLEMS[:]
        rng.shuffle(order)
        for path in order:
            lat, params = lattice_of(path)
            assert (lat.subs, lat.dims, lat._below) == cold[path], path
    loop_free, looped = set(), set()
    for path in PROBLEMS:
        m, _params = parse_problem(json.loads(path.read_text()))
        loops = {src for src, tgt in m.quiver.arrows if src == tgt}
        for v, d in m.dims.items():
            (looped if v in loops else loop_free).add((d, m.field.p))
    assert looped - loop_free  # some shape is only ever looped
    assert set(empty_shapes) == loop_free
    for (d, p), shape in empty_shapes.items():
        assert type(shape.subspaces) is tuple
        assert list(shape.subspaces) == enumerate_subspaces(d, PrimeField(p))


def test_sequence_search_agrees_on_a_warm_table(empty_shapes):
    """The quotient search against the sequence search on every committed
    problem and on the shape reps of the differential tests, all built on
    a table the committed problems filled."""
    lattices = [lattice_of(path) for path in PROBLEMS]
    for lat, params in lattices:
        if not lat.rep.is_zero():
            assert_lattice_searches_agree(lat, params)
    for quiver_, field, dims in SHAPES.values():
        rng, prng = random.Random(4), random.Random(9)
        for density in (0.0, 0.3, 0.6, 1.0):
            lat = SubrepLattice(random_maps(rng, quiver_, field, dims, density))
            assert_lattice_searches_agree(lat, random_params(prng, quiver_))


@pytest.mark.parametrize("order", ["kron2-23-f7", "seeded"])
@pytest.mark.parametrize("name", MASK_SHAPES)
def test_a_shape_lists_each_subspace_once(monkeypatch, empty_shapes, name, order):
    """Point masks asked for in several overlapping fills: each subspace
    lists its points at most once in the shape's life, and every mask
    returned is the brute-force mask, each subspace of the list tested.
    The first fill is the normalized images of the basis rows of every
    subspace of F_p^(d-1) under two random maps, as enumeration asks for
    a 2-Kronecker target.  The kron2-23-f7 order then asks for every
    basis row, as the containment table does, and for seeded samples of
    the points; the seeded order asks for the samples first."""
    d, field, loops = MASK_SHAPES[name]
    listed = Counter()
    points = Subspace.points

    def counted(s):
        listed[s] += 1
        return points(s)

    monkeypatch.setattr(Subspace, "points", counted)
    m = Representation(Quiver(("v",), (("v", "v"),) * len(loops)), field, {"v": d}, loops)
    shape = SubrepLattice(m).subs.shapes[0]
    assert (empty_shapes.get((d, field.p)) is shape) == (not loops)
    p, rng = field.p, random.Random(29 + 2 * field.p + len(loops))
    maps = [
        Matrix.from_rows(field, [[rng.randrange(p) for _c in range(d - 1)] for _r in range(d)])
        for _arrow in range(2)
    ]
    images = {
        _Images(mat)[row] for mat in maps for s in enumerate_subspaces(d - 1, field)
        for row in s.basis
    }
    rows = {row for t in shape.subspaces for row in t.basis}
    pool = [v for v in itertools.product(range(p), repeat=d) if next(filter(None, v), 0) == 1]
    samples = [
        set(rng.sample(pool, rng.randint(1, len(pool)))) for _draw in range(rng.randint(1, 3))
    ]
    fills = [images] + ([rows] + samples if order == "kron2-23-f7" else samples + [rows])
    for asked in fills:
        masks = shape.masks(asked)
        for pt in asked:
            assert masks[pt] == sum(
                1 << i for i, t in enumerate(shape.subspaces)
                if pt is None or t.contains_vector(pt)
            ), (pt, asked)
    assert listed and max(listed.values()) == 1
