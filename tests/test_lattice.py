import json
import random
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverstab import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    Filtration,
    StabilityParams,
    PrimeField,
    Quiver,
    Representation,
    SubrepLattice,
    Subrepresentation,
    Subspace,
    check_hn_properties,
    enumerate_subreps,
    hn_filtration,
    is_semistable,
    kempf,
    linalg,
    quiver,
)
from quiverstab.cli import enumerate_result, parse_problem, verify_result

from conftest import A3, F2, F3, params_for, random_rep
from oracles import (
    bits_by_bin,
    chain_dag,
    hn_by_quotients,
    hn_report_by_quotients,
    labels_of,
    subspace_count,
    zero_matrix,
)
from test_acceptance import main_theorem_problems
from test_enumeration import D4_IN, SHAPES, random_maps
from test_shape_table import PROBLEMS

F97 = PrimeField(97)

UNSTABLE = (
    Path(__file__).resolve().parent.parent
    / "perfbench" / "problems" / "chain-heavy" / "001-kron2-23-F5-unstable.json"
)


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


@pytest.mark.parametrize(
    "quiver, field, max_dims",
    [(A3, F3, (2, 2, 2)), (D4_IN, F2, (2, 1, 1, 3))],
    ids=["A3", "D4"],
)
def test_quotient_verdicts_on_chains_that_are_not_hn(quiver, field, max_dims):
    # random strictly increasing chains to the whole, HN ones skipped:
    # each quotient's verdict, read off its interval in the lattice,
    # equals the one decided on the quotient built as a representation,
    # and some quotient above 0 is not semistable
    rng = random.Random(16)
    chains = unstable_above_zero = 0
    while chains < 40:
        m = random_rep(rng, quiver, field, max_dims)
        if m.is_zero():
            continue
        params = params_for(quiver, [rng.randint(-2, 2) for _ in quiver.vertices])
        lat = SubrepLattice(m)
        chain = [0]
        while chain[-1] != len(lat.subs) - 1:
            lo = chain[-1]
            above = [k for k in range(lo + 1, len(lat.subs)) if lat.contains(k, lo)]
            chain.append(rng.choice(above))
        f = Filtration(m, tuple(lat.subs[i] for i in chain[1:]))
        hn = hn_filtration(lat, params)
        if [s.spaces for s in f.steps] == [s.spaces for s in hn.steps]:
            continue
        report = check_hn_properties(lat, f, params)
        assert report == hn_report_by_quotients(f, params), (m, params, chain)
        unstable_above_zero += report.quotients_semistable[1:].count(False)
        chains += 1
    assert unstable_above_zero > 0


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


def test_labels_keep_one_list(monkeypatch):
    # one entry: theta, theta', theta builds three lists, each right, and
    # asking again for the last (sigma, theta) hands out the same list
    data = json.loads(UNSTABLE.read_text())
    m, theta = parse_problem(data)
    lat = SubrepLattice(m)
    other = StabilityParams({v: -t for v, t in theta.theta.items()}, theta.sigma)
    built = [lat.labels(p) for p in (theta, other, theta)]
    for labels, p in zip(built, (theta, other, theta)):
        assert labels == labels_of(lat.subs, p)
    assert len({id(labels) for labels in built}) == 3
    assert lat.labels(parse_problem(data)[1]) is built[2]
    # one unstable verify builds one list, read by both routes
    handed = []
    labels_of_lattice = SubrepLattice.labels

    def spy(lat, params):
        handed.append(labels_of_lattice(lat, params))
        return handed[-1]

    monkeypatch.setattr(SubrepLattice, "labels", spy)
    result = verify_result(data, 10**6)
    assert (result["semistable"], result["match"]) == (False, True)
    assert len(handed) > 1
    assert len({id(labels) for labels in handed}) == 1


def quotient_cases():
    """Reps of the enumeration shapes, and one with seven simple summands
    at seven vertices, whose 128 subreps are 128 classes: there the
    later nodes with few predecessors count them against many more
    earlier classes."""
    yield random_rep(random.Random(5), A3, F3, (2, 2, 2))
    for q, field, dims in SHAPES.values():
        yield random_maps(random.Random(6), q, field, dims, 0.3)
    q = Quiver(tuple("abcdefg"), ())
    yield Representation(q, F2, dict.fromkeys(q.vertices, 1), ())


def test_chain_dag_read_off_masks(monkeypatch):
    # the quotient is read off the masks with no pairwise call: each
    # node's strict predecessors in chain_dag, grouped by class, give its
    # class's (class, count) predecessors, the members of those classes
    # below the node are chain_dag's list, and no two classes share a
    # dimension vector and predecessors; some nodes have at least 32 more
    # earlier classes than strict predecessors, each counted by one AND
    def pairwise(*_args):
        raise AssertionError("the DAG made a pairwise containment call")

    wide = 0
    for m in quotient_cases():
        lat = SubrepLattice(m)
        params = params_for(m.quiver, [0] * len(m.quiver.vertices))
        _subs, lower, _labels, _full = chain_dag(lat, params)
        monkeypatch.setattr(SubrepLattice, "contains", pairwise)
        members, qlower, first = kempf._chain_index_sets(lat)
        monkeypatch.undo()
        of = {j: c for c, mask in enumerate(members) for j in bits_by_bin(mask)}
        assert sorted(of) == list(range(len(lower)))
        assert first == [bits_by_bin(mask)[0] for mask in members] == sorted(first)
        for j, pre in enumerate(lower):
            c = of[j]
            assert lat.dims[j] == lat.dims[first[c]]
            assert tuple(sorted(Counter(of[i] for i in pre).items())) == qlower[c]
            assert sorted(
                i for d, _k in qlower[c] for i in bits_by_bin(members[d] & lat._below[j])
            ) == pre
            wide += bisect_left(first, j) >= len(pre) + 32
        assert len({(lat.dims[j], pre) for j, pre in zip(first, qlower)}) == len(members)
    assert len(members) == len(lower) == 128
    assert wide


def test_bits_of_zero_one_and_single_high_bits():
    for mask in (0, 1, 1 << 7, 1 << 8, 1 << 63, 1 << 64, 1 << 19_999, (1 << 20_000) - 1):
        assert quiver._bits(mask) == bits_by_bin(mask)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 20_000).flatmap(lambda n: st.integers(0, (1 << n) - 1)))
def test_bits_equal_the_bin_walk(mask):
    assert quiver._bits(mask) == bits_by_bin(mask)


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


# -- the lattice builds a subrep only when it is read -------------------------


@pytest.fixture
def built(monkeypatch):
    """A one-item list counting the Subrepresentations built from here on,
    by the checked constructor or by the lattice's unchecked one."""
    count = [0]
    closed = Subrepresentation._closed.__func__
    post_init = Subrepresentation.__post_init__

    def counted_closed(cls, parent, spaces):
        count[0] += 1
        return closed(cls, parent, spaces)

    def counted_post_init(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(Subrepresentation, "_closed", classmethod(counted_closed))
    monkeypatch.setattr(Subrepresentation, "__post_init__", counted_post_init)
    return count


def test_reading_the_lattice_builds_no_subrep(built):
    # the count, dimension vectors, labels, containment, both semistability
    # routes and the enumerate command read only the subreps' keys
    for path in PROBLEMS:
        data = json.loads(path.read_text())
        m, params = parse_problem(data)
        lat = SubrepLattice(m)
        assert len(lat.subs) == len(lat.dims) == len(lat._below)
        lat.labels(params)
        assert is_semistable(lat, params) == kempf.kempf_semistability(lat, params)
        assert enumerate_result(data, DEFAULT_BUDGET)["count"] == len(lat.subs)
    assert built[0] == 0


def test_verify_builds_only_the_filtration_steps(built):
    # HN and Kempf read the same steps off the lattice, each built once
    unstable = 0
    for path in PROBLEMS:
        built[0] = 0
        report = verify_result(json.loads(path.read_text()), DEFAULT_BUDGET)
        assert report["match"], path
        steps = 0 if report["semistable"] else len(report["hn"]["steps"])
        assert built[0] == steps, path
        unstable += steps > 0
    assert unstable


def test_a_subrep_read_twice_is_one_object():
    m = random_maps(random.Random(5), D4_IN, F2, (2, 1, 1, 3), 0.3)
    subs = SubrepLattice(m).subs
    n = len(subs)
    for i in (0, 1, n // 2, n - 1):
        assert subs[i] is subs[i] is subs[i - n]
    assert all(a is b for a, b in zip(subs[1:n:2], list(subs)[1:n:2]))
    with pytest.raises(IndexError):
        subs[n]


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_index_finds_an_equal_subrep_built_apart(shape):
    # index bisects each shape's list by (dim, basis) and then the keys;
    # each subrep of a second enumeration, rebuilt by the checked
    # constructor from fresh subspaces, is found at its own position
    q, field, dims = shape
    m = random_maps(random.Random(8), q, field, dims, 0.3)
    lat = SubrepLattice(m)
    for i, s in enumerate(enumerate_subreps(m)):
        twin = Subrepresentation(
            m, {v: Subspace(t.field, t.ambient, t.basis) for v, t in s.spaces.items()}
        )
        assert lat.subs.index(twin) == i


def test_index_refuses_a_subrep_of_another_rep():
    # the zero and the whole subrep of a rep with the same spaces and other
    # maps are not in the lattice, though their spaces are
    m, _params = parse_problem(json.loads(UNSTABLE.read_text()))
    lat = SubrepLattice(m)
    zero_maps = tuple(zero_matrix(m.field, a.nrows, a.ncols) for a in m.arrow_maps)
    other = Representation(m.quiver, m.field, m.dims, zero_maps)
    assert other != m
    for s in (lat.subs[0], lat.subs[-1]):
        with pytest.raises(ValueError):
            lat.subs.index(Subrepresentation(other, dict(s.spaces)))
