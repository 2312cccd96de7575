"""The subspace list and point masks of a loop-free vertex shape depend
only on (dimension, prime), so one table per process shares them across
problems.  A table warmed by other problems must change no lattice and
no answer, and must keep no looped shape."""

import json
import random
from pathlib import Path

from quiverstab import PrimeField, SubrepLattice, enumerate_subspaces
from quiverstab.cli import parse_problem

from test_enumeration import SHAPES, random_maps
from test_kempf_search import assert_lattice_searches_agree, random_params

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "problems"
PROBLEMS = sorted(p for p in PROBLEM_DIR.glob("*/*.json") if p.name != "expected.json")


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
