import random

import pytest

from quiverstab import (
    EnumerationBudgetError,
    StabilityParams,
    PrimeField,
    Quiver,
    Representation,
    SubrepLattice,
    check_hn_properties,
    enumerate_subreps,
    hn_filtration,
    is_semistable,
    kempf,
    linalg,
    quiver,
)
from quiverstab.cli import parse_problem

from conftest import A3, F3, random_rep
from oracles import (
    chain_dag,
    hn_by_quotients,
    hn_report_by_quotients,
    labels_of,
    subspace_count,
    zero_matrix,
)
from test_acceptance import main_theorem_problems
from test_enumeration import SHAPES, random_maps

F97 = PrimeField(97)


def test_lattice_hn_equals_quotient_recursion():
    unstable = 0
    for _criterion, problem in main_theorem_problems():
        m, params = parse_problem(problem)
        lat = SubrepLattice(m)
        if is_semistable(lat, params):
            continue
        f = hn_filtration(lat, params)
        oracle = hn_by_quotients(m, params)
        assert [s.spaces for s in f.steps] == [s.spaces for s in oracle.steps]
        assert check_hn_properties(lat, f, params) == hn_report_by_quotients(
            oracle, params
        )
        unstable += 1
    assert unstable > 0


def test_lattice_order_and_inclusions():
    m = random_rep(random.Random(3), A3, F3, (2, 2, 2))
    lat = SubrepLattice(m)
    assert lat.subs[0].is_zero() and lat.subs[-1].is_full()
    n = len(lat.subs)
    for j in range(n):
        for i in range(n):
            assert lat.contains(j, i) == quiver.sub_contains(lat.subs[j], lat.subs[i])


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_containment_equals_pairwise_oracle(shape):
    q, field, dims = shape
    rng = random.Random(6)
    for density in (0.3, 0.6):
        lat = SubrepLattice(random_maps(rng, q, field, dims, density))
        subs = lat.subs
        for j, a in enumerate(subs):
            for i, b in enumerate(subs):
                assert lat.contains(j, i) == quiver.sub_contains(a, b)


def test_containment_table_makes_no_pairwise_call(monkeypatch):
    def pairwise(*_args):
        raise AssertionError("the containment table made a pairwise call")

    lat = SubrepLattice(random_rep(random.Random(5), A3, F3, (2, 2, 2)))
    monkeypatch.setattr(linalg, "contains", pairwise)
    monkeypatch.setattr(quiver, "contains", pairwise)
    below = lat._below
    monkeypatch.undo()
    n = len(lat.subs)
    assert below == [
        sum(1 << i for i in range(n) if quiver.sub_contains(lat.subs[j], lat.subs[i]))
        for j in range(n)
    ]


def test_labels_match_oracle_on_theorem_families():
    for _criterion, problem in main_theorem_problems():
        m, params = parse_problem(problem)
        lat = SubrepLattice(m)
        assert lat.labels(params) == labels_of(lat.subs, params)


def test_labels_reject_other_vertices():
    lat = SubrepLattice(random_rep(random.Random(4), A3, F3, (1, 1, 1)))
    with pytest.raises(ValueError, match="disagree on vertices"):
        lat.labels(StabilityParams({"a": 1}, {"a": 1}))


def test_chain_dag_read_off_masks(monkeypatch):
    def pairwise(*_args):
        raise AssertionError("the DAG made a pairwise containment call")

    lat = SubrepLattice(random_rep(random.Random(5), A3, F3, (2, 2, 2)))
    params = StabilityParams({v: 0 for v in A3.vertices}, {v: 1 for v in A3.vertices})
    subs, lower, _labels, full = chain_dag(lat, params)
    monkeypatch.setattr(SubrepLattice, "contains", pairwise)
    assert kempf._chain_index_sets(lat) == (subs, lower, full)


def no_subspace_lists(*_args, **_kwargs):
    raise AssertionError("a subspace list was built before the budget check")


def test_subrep_budget_checked_before_building(monkeypatch):
    monkeypatch.setattr(quiver, "enumerate_subspaces", no_subspace_lists)
    m = Representation(Quiver(("a",), ()), F97, {"a": 6}, ())
    with pytest.raises(EnumerationBudgetError) as exc:
        enumerate_subreps(m, budget=10)
    # counting stops once the count passes the budget
    assert 10 < exc.value.count <= subspace_count(6, 97)
    assert exc.value.stage == "candidates"


def test_submodule_budget_checked_before_building(monkeypatch):
    monkeypatch.setattr(quiver, "enumerate_subspaces", no_subspace_lists)
    q = Quiver.kronecker(1)
    m = Representation(q, F97, {"v0": 3, "v1": 3}, (zero_matrix(F97, 3, 3),))
    with pytest.raises(EnumerationBudgetError) as exc:
        SubrepLattice(m, budget=10)
    assert 10 < exc.value.count <= subspace_count(3, 97) ** 2
    assert exc.value.stage == "candidates"


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_candidate_budget_is_exact_at_the_boundary(shape):
    # the candidate product fits a budget equal to it, and a budget one
    # below it is refused with a count above the budget and at most the product
    q, field, dims = shape
    m = random_maps(random.Random(7), q, field, dims, 0.5)
    product = 1
    for v in q.vertices:
        product *= subspace_count(m.dims[v], field.p)
    assert enumerate_subreps(m, budget=product)
    with pytest.raises(EnumerationBudgetError) as exc:
        enumerate_subreps(m, budget=product - 1)
    assert product - 1 < exc.value.count <= product
