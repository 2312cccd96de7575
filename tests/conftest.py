import itertools
import random
from fractions import Fraction

import pytest

from quiverstab import (
    Matrix,
    PrimeField,
    Quiver,
    Representation,
    StabilityParams,
    SubrepLattice,
    linalg,
    quiver,
)

F2 = PrimeField(2)
F3 = PrimeField(3)

A3 = Quiver(("v0", "v1", "v2"), (("v0", "v1"), ("v1", "v2")))


def kronecker_rep(field, dims, entries_list):
    """1-arrow Kronecker representation from flat entry lists per arrow."""
    q = Quiver.kronecker(len(entries_list))
    dv, dw = dims
    maps = []
    for entries in entries_list:
        rows = tuple(
            tuple(entries[i * dv + j] for j in range(dv)) for i in range(dw)
        )
        maps.append(Matrix(field, dw, dv, rows))
    return Representation(q, field, {"v0": dv, "v1": dw}, tuple(maps))


def all_kronecker_reps(field, dims, num_arrows=1):
    """Every representation with the given dimension vector, all matrices."""
    dv, dw = dims
    n = dv * dw
    for combo in itertools.product(
        itertools.product(range(field.p), repeat=n), repeat=num_arrows
    ):
        yield kronecker_rep(field, dims, list(combo))


def random_rep(rng, quiver, field, max_dims):
    dims = {v: rng.randint(0, d) for v, d in zip(quiver.vertices, max_dims)}
    maps = []
    for src, tgt in quiver.arrows:
        rows = tuple(
            tuple(rng.randrange(field.p) for _ in range(dims[src]))
            for _ in range(dims[tgt])
        )
        maps.append(Matrix(field, dims[tgt], dims[src], rows))
    return Representation(quiver, field, dims, tuple(maps))


@pytest.fixture
def empty_shapes(monkeypatch):
    """An empty table of loop-free vertex shapes for one test, the table
    of the tests before it put back after; returns the empty table."""
    table = {}
    monkeypatch.setattr(quiver, "_LOOP_FREE", table)
    return table


@pytest.fixture
def empty_patterns(monkeypatch):
    """An empty table of RREF patterns for one test, the table of the
    tests before it put back after; returns the empty table."""
    table = {}
    monkeypatch.setattr(linalg, "_PATTERNS", table)
    return table


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260823)


def params_for(quiver, theta, sigma=None):
    if sigma is None:
        sigma = (1,) * len(quiver.vertices)
    return StabilityParams(
        dict(zip(quiver.vertices, theta)), dict(zip(quiver.vertices, sigma))
    )


def patch_labels(monkeypatch, edit):
    """Make SubrepLattice.labels pass its labels through edit(labels),
    which changes them in place: a copy, so the list the lattice keeps
    stays as it was built."""
    labels_of = SubrepLattice.labels

    def patched(lat, params):
        labels = list(labels_of(lat, params))
        edit(labels)
        return labels

    monkeypatch.setattr(SubrepLattice, "labels", patched)


def tie_two_lines(labels):
    """On a 2-dimensional vertex with no arrow, subs[1] and subs[2] are two
    distinct lines, neither inside the other: lift both to one label of a
    slope above every other."""
    sigma, theta = labels[1]
    labels[1] = labels[2] = (sigma, theta + 100)
