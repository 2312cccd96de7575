import random

import pytest

from quiverstab import (
    EnumerationBudgetError,
    KroneckerModule,
    Matrix,
    PrimeField,
    Quiver,
    Representation,
    SubrepLattice,
    check_hn_properties,
    enumerate_submodules,
    enumerate_subreps,
    hn_filtration,
    is_semistable,
    kronecker,
    quiver,
)
from quiverstab.cli import parse_problem
from quiverstab.linalg import subspace_count

from conftest import A3, F3, random_rep
from oracles import hn_by_quotients, hn_report_by_quotients
from test_acceptance import main_theorem_problems

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


def no_subspace_lists(*_args, **_kwargs):
    raise AssertionError("a subspace list was built before the budget check")


def test_subrep_budget_checked_before_building(monkeypatch):
    monkeypatch.setattr(quiver, "enumerate_subspaces", no_subspace_lists)
    m = Representation(Quiver(("a",), ()), F97, {"a": 6}, ())
    with pytest.raises(EnumerationBudgetError) as exc:
        enumerate_subreps(m, budget=10)
    assert exc.value.candidate_count == subspace_count(6, 97)


def test_submodule_budget_checked_before_building(monkeypatch):
    monkeypatch.setattr(kronecker, "enumerate_subspaces", no_subspace_lists)
    m = KroneckerModule(F97, 3, 3, (Matrix.zero(F97, 3, 3),))
    with pytest.raises(EnumerationBudgetError) as exc:
        enumerate_submodules(m, budget=10)
    assert exc.value.candidate_count == subspace_count(3, 97) ** 2
