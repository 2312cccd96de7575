"""The Kempf search carries each PAV block stack's score square in
integers as it interns the stack, and runs on the exact quotient of the
inclusion DAG, each class edge weighted by its count; with its winner
lifted to nodes, it must give the answers and tie errors of the search
keyed on whole label sequences over the pairwise DAG, the
one-chain-at-a-time Fraction walk's answers, and the HN filtration, and
each carried square must be the one _chain_score gives."""

import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverstab import (
    Filtration,
    Matrix,
    PrimeField,
    Quiver,
    EnumerationBudgetError,
    Representation,
    StabilityParams,
    SubrepLattice,
    TheoremContradictionError,
    hn_filtration,
    is_semistable,
    kempf_filtration,
    kempf_semistability,
    kempf,
    quiver,
)
from quiverstab.cli import EXIT_BUDGET, EXIT_OK, main, parse_problem

from conftest import A3, F2, F3, params_for, random_rep
from oracles import (
    ascending_chains,
    chain_dag,
    chain_score_by_fractions,
    kempf_by_chains,
    refinement_domination_violations,
    refinements_by_fractions,
    scored_chains,
    sequence_search,
    strictly_below,
)
from rungs import rung
from test_acceptance import main_theorem_problems
from test_enumeration import SHAPES, random_maps

CHAIN_HEAVY = (
    Path(__file__).resolve().parent.parent
    / "perfbench" / "problems" / "chain-heavy" / "000-kron2-23-F7-open.json"
)

# chain score squares are never negative
BELOW_EVERY_SCORE = Fraction(-1)

# quiver families the theorem sweep does not cover, with maximum dims
FAMILIES = (
    (Quiver(("a", "b", "c", "z"), (("a", "z"), ("b", "z"), ("c", "z"))), (1, 1, 1, 2)),
    (Quiver(("v0", "v1"), (("v0", "v0"), ("v0", "v1"))), (2, 2)),
    (Quiver(("v0", "v1"), (("v0", "v1"), ("v1", "v0"))), (2, 2)),
    (Quiver.kronecker(3), (2, 2)),
)


def sampled_problems():
    """(representation, params) for 60 seeded reps of each of a D4 star,
    a loop plus an arrow, an oriented 2-cycle and the 3-Kronecker
    quiver, over F2 and F3."""
    rng = random.Random(20261018)
    for q, max_dims in FAMILIES:
        sampled = 0
        while sampled < 60:
            m = random_rep(rng, q, rng.choice((F2, F3)), max_dims)
            if m.is_zero():
                continue
            theta = {v: rng.randint(-2, 2) for v in q.vertices}
            sigma = {v: rng.randint(1, 2) for v in q.vertices}
            yield m, StabilityParams(theta, sigma)
            sampled += 1


def theorem_problems():
    for _criterion, problem in main_theorem_problems():
        yield parse_problem(problem)


@pytest.mark.parametrize("problems", [theorem_problems, sampled_problems])
def test_search_equals_chain_walk(problems):
    unstable = 0
    for m, params in problems():
        lat = SubrepLattice(m)
        scored, tm, sm = scored_chains(lat, params)
        for _steps, seq, gamma, score in scored:
            blocks, own = kempf._chain_score(seq, tm, sm)
            assert (kempf._gamma(blocks), own) == (gamma, score)
            # tied means are pooled: one step per block iff gamma increases
            strict = all(a < b for a, b in zip(gamma, gamma[1:]))
            assert (len(blocks) == len(seq)) == strict
        assert kempf_semistability(lat, params) == (
            not any(score > 0 for *_rest, score in scored)
        )
        # refining 0 < M gives every two-step chain 0 < N < M
        whole = Filtration(m, (lat.subs[-1],))
        assert refinement_domination_violations(
            lat, whole, params, BELOW_EVERY_SCORE
        ) == refinements_by_fractions(lat, whole, params)
        if is_semistable(lat, params):
            continue
        f, gamma, score = kempf_filtration(lat, params)
        of, ogamma, oscore = kempf_by_chains(lat, scored)
        assert [s.spaces for s in f.steps] == [s.spaces for s in of.steps]
        assert (gamma, score) == (ogamma, oscore)
        # the theorem: the Kempf winner is the HN filtration
        hn = hn_filtration(lat, params)
        assert [s.spaces for s in hn.steps] == [s.spaces for s in f.steps]
        # every refinement of the winner, which all score the winner's score
        assert refinement_domination_violations(
            lat, f, params, BELOW_EVERY_SCORE
        ) == refinements_by_fractions(lat, f, params)
        unstable += 1
    assert unstable > 0


def quotient_of(lower, labels):
    """(below, quotient) of a hand-built DAG rooted at node 0, given by
    its predecessor lists and keyed on its labels: below[j] is the mask
    of j and its predecessors, as kempf._quotient reads it."""
    below = [sum(1 << i for i in pre) | 1 << j for j, pre in enumerate(lower)]
    return below, kempf._quotient(below, labels)


def quotient_search(lower, labels):
    """The search on the quotient of a hand-built DAG, lifted to nodes."""
    below, quotient = quotient_of(lower, labels)
    return kempf._quotient_search(below, quotient, labels)


def test_search_returns_the_single_winning_chain():
    # below the root 0, nodes 1 and 2 share the label (1, 1) and form one
    # class, but only node 1 lies below the top node 3, so one chain
    # carries the winning sequence and the lift picks node 1
    lower = [[], [0], [0], [0, 1]]
    labels = [(0, 0), (1, 1), (1, 1), (2, 0)]
    _below, (members, qlower, _first) = quotient_of(lower, labels)
    assert members == [0b1, 0b110, 0b1000]
    assert qlower[2] == ((0, 1), (1, 1))
    assert quotient_search(lower, labels) == (Fraction(8), ((0, 1, 3), (-1, 1)))


def test_tie_between_chains_with_one_sequence_is_raised():
    # both nodes 1 and 2 carry the winning sequence ((1, 1), (2, 0)); they
    # form one class, whose one edge into node 3 has count 2, so only the
    # weight of that edge sees the tie
    lower = [[], [0], [0], [0, 1, 2]]
    labels = [(0, 0), (1, 1), (1, 1), (2, 0)]
    below, quotient = quotient_of(lower, labels)
    members, qlower, _first = quotient
    assert members == [0b1, 0b110, 0b1000]
    assert qlower[2] == ((0, 1), (1, 2))
    with pytest.raises(TheoremContradictionError, match="^2 chains"):
        kempf._quotient_search(below, quotient, labels)


def search_outcome(search, *args):
    """(best, winner) of a search, or the message of the tie it raised."""
    try:
        return search(*args)
    except TheoremContradictionError as exc:
        return f"raised: {exc}"


def assert_searches_agree(lower, labels):
    assert search_outcome(quotient_search, lower, labels) == search_outcome(
        sequence_search, lower, labels
    )


def assert_lattice_searches_agree(lat, params):
    """The quotient search on the lattice, lifted to lattice indices,
    against the sequence search on the pairwise DAG of chain_dag."""
    _subs, lower, labels, _full = chain_dag(lat, params)
    quotient = kempf._chain_index_sets(lat)
    assert search_outcome(
        kempf._quotient_search, lat._below, quotient, lat.labels(params)
    ) == search_outcome(sequence_search, lower, labels)


def random_params(rng, q):
    return StabilityParams(
        {v: rng.randint(-2, 2) for v in q.vertices},
        {v: rng.randint(1, 2) for v in q.vertices},
    )


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_state_search_equals_sequence_search_on_shapes(shape):
    quiver_, field, dims = shape
    rng, prng = random.Random(4), random.Random(9)
    # the reps of test_enumeration.test_join_equals_product
    for density in (0.0, 0.3, 0.3, 0.6, 0.6, 1.0, 1.0):
        lat = SubrepLattice(random_maps(rng, quiver_, field, dims, density))
        assert_lattice_searches_agree(lat, random_params(prng, quiver_))


# 1- and 2-Kronecker, A3, D4, loop plus arrow, oriented 2-cycle
SEARCH_FAMILIES = (
    (Quiver.kronecker(1), (3, 3)),
    (Quiver.kronecker(2), (2, 3)),
    (A3, (2, 2, 2)),
    FAMILIES[0],
    FAMILIES[1],
    FAMILIES[2],
)


def test_state_search_equals_sequence_search_on_random_reps():
    rng = random.Random(20261018)
    sampled = 0
    while sampled < 504:
        q, max_dims = SEARCH_FAMILIES[sampled % len(SEARCH_FAMILIES)]
        m = random_rep(rng, q, rng.choice((F2, F3)), max_dims)
        if m.is_zero():
            continue
        assert_lattice_searches_agree(SubrepLattice(m), random_params(rng, q))
        sampled += 1


# (lower, labels) of hand-built DAGs rooted at node 0
HAND_BUILT = {
    # the chains 0 < 1 < 3 and 0 < 2 < 3 pool their two steps into one
    # block (2, 0), and every chain to node 5 but 0 < 4 < 5 pools into
    # the one block (3, 0), so five sequences at node 5 make two states;
    # the winner 0 < 4 < 5 has one step per block
    "two-sequences-one-state": (
        [[], [0], [0], [0, 1, 2], [0], [0, 3, 4]],
        [(0, 0), (1, 0), (1, -1), (2, 0), (2, 1), (3, 0)],
    ),
    # 0 < 1 < 3 and 0 < 2 < 3 have different sequences, one step per
    # block and the same score 27/2
    "two-states-tie": (
        [[], [0], [0], [0, 1, 2]],
        [(0, 0), (1, 1), (2, 1), (3, 0)],
    ),
    # two chains carry the winning sequence ((1, 1), (2, 0))
    "two-chains-one-sequence": (
        [[], [0], [0], [0, 1, 2]],
        [(0, 0), (1, 1), (1, 1), (2, 0)],
    ),
    # nodes 1 and 2 form one class; nodes 3 and 4 share a label and the
    # set of their predecessor classes, but 4 lies above both members of
    # that class and 3 above one, so they are two classes, and three
    # chains carry the sequence ((1, 1), (2, 1), (3, 0))
    "one-set-two-multisets": (
        [[], [0], [0], [0, 1], [0, 1, 2], [0, 1, 2, 3, 4]],
        [(0, 0), (1, 1), (1, 1), (2, 1), (2, 1), (3, 0)],
    ),
}


@pytest.mark.parametrize("dag", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_state_search_equals_sequence_search_on_hand_built_dags(dag):
    assert_searches_agree(*dag)


def pushed_stack(seq, tm, sm):
    """The block stack of a label sequence pushed one step at a time the
    way _kempf_search pushes a state: each block with the score square
    (num, den) carried from the stack under it by _square_with."""
    stack = []  # (W, S, steps, square of the stack up to this block)
    prev_s, prev_t = 0, 0
    for s, t in seq:
        w = s - prev_s
        x, n = tm * w - sm * (t - prev_t), 1
        prev_s, prev_t = s, t
        while stack and kempf._merges(stack[-1], w, x):
            w1, x1, n1, _square = stack.pop()
            w, x, n = w + w1, x + x1, n + n1
        below = stack[-1][3] if stack else (0, 1)
        stack.append((w, x, n, kempf._square_with(below, (w, x, n))))
    return stack


def assert_carried_square_is_the_chain_score(seq):
    """Every prefix's carried square has _chain_score's blocks, the
    integers _square_with folds from them and the value of its score
    square; the whole chain's square is the Fraction oracle's."""
    sm, tm = seq[-1]
    for k in range(1, len(seq) + 1):
        stack = pushed_stack(seq[:k], tm, sm)
        blocks, score = kempf._chain_score(seq[:k], tm, sm)
        assert [top[:3] for top in stack] == blocks
        num, den = stack[-1][3]
        assert reduce(kempf._square_with, blocks, (0, 1)) == (num, den)
        assert score == Fraction(num, den)
    assert score == chain_score_by_fractions(seq, tm, sm)[1]


# label sequences: sigma strictly increasing from above 0, integer theta;
# the last label is the end label (sm, tm), sm > 0
LABEL_SEQUENCES = st.lists(
    st.tuples(st.integers(1, 12), st.integers(-20, 20)),
    min_size=1, max_size=8, unique_by=lambda lab: lab[0],
).map(sorted)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(LABEL_SEQUENCES)
def test_carried_square_equals_the_chain_score(seq):
    assert_carried_square_is_the_chain_score(seq)


@pytest.mark.parametrize("dag", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_carried_square_equals_the_chain_score_on_hand_built_dags(dag):
    lower, labels = dag
    for chain in ascending_chains(lower, len(lower) - 1):
        assert_carried_square_is_the_chain_score([labels[i] for i in chain[1:]])


def test_sequences_that_pool_alike_are_scored_once(monkeypatch):
    # the states at M are compared by their carried squares; only the
    # winner's sequence is pooled again
    scored = []

    def chain_score(seq, tm, sm):
        scored.append(seq)
        return score_chain(seq, tm, sm)

    score_chain = kempf._chain_score
    monkeypatch.setattr(kempf, "_chain_score", chain_score)
    lower, labels = HAND_BUILT["two-sequences-one-state"]
    best, winner = quotient_search(lower, labels)
    assert (best, winner) == (Fraction(27, 2), ((0, 4, 5), (-1, 2)))
    assert scored == [(labels[4], labels[5])]


def test_state_search_equals_sequence_search_on_an_a3_rung():
    # A3 (3,3,3) over F2: 255 subreps and about 1.5 million chains
    rng = random.Random(1)
    rows = [tuple(rng.randrange(2) for _c in range(3)) for _r in range(6)]
    maps = (Matrix(F2, 3, 3, tuple(rows[:3])), Matrix(F2, 3, 3, tuple(rows[3:])))
    m = Representation(A3, F2, dict.fromkeys(A3.vertices, 3), maps)
    assert_lattice_searches_agree(SubrepLattice(m), params_for(A3, (2, 0, -2)))


def chain_count(lower):
    """The chains from node 0 to the last node, each (predecessor, count)
    edge standing for count edges."""
    chains = [1]
    for pre in lower[1:]:
        chains.append(sum(k * chains[i] for i, k in pre))
    return chains[-1]


def test_quotient_keeps_the_search_on_an_a3_rung():
    # A3 (4,3,3) over F2 from tests/rungs.py: 1,079 subreps in 96 classes;
    # the search and the chain count on the classes equal those on the
    # unquotiented DAG, read off the masks with every count k = 1
    m, params = rung("A3 (4,3,3)/F2")
    lat = SubrepLattice(m, budget=10**30)
    members, lower, first = quotient = kempf._chain_index_sets(lat)
    assert len(members) == 96
    nodes = [[(i, 1) for i in strictly_below(lat, j)] for j in range(len(lat.subs))]
    labels = lat.labels(params)
    assert kempf._quotient_search(lat._below, quotient, labels) == kempf._kempf_search(
        nodes, labels
    )
    assert chain_count(lower) == chain_count(nodes) == 79547696
    lat.budget = 79547695
    with pytest.raises(EnumerationBudgetError) as exc:
        kempf._chain_index_sets(lat)
    assert exc.value.count == 79547696


def test_chain_budget_exits_4(capsys):
    # 1,160 candidates fit the budget; 10,566 chains do not
    assert main(["verify", str(CHAIN_HEAVY), "--budget", "2000"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err == "error: enumeration would visit 10566 chains, budget is 2000\n"
    assert main(["verify", str(CHAIN_HEAVY), "--budget", "10566"]) == EXIT_OK


def test_enumeration_checks_closure_once(monkeypatch):
    def no_second_check(*_args):
        raise AssertionError("closure checked again after the candidate filter")

    monkeypatch.setattr(quiver, "is_subrep", no_second_check)
    m = random_rep(random.Random(5), FAMILIES[0][0], PrimeField(3), (1, 1, 1, 2))
    assert len(quiver.enumerate_subreps(m)) > 2
