"""The normalized destabilizing score of a chain, and the search for the
maximally destabilizing weighted filtration.

A chain 0 < M_1 < ... < M_t = M of subrepresentations is read through
the cumulative (sigma, theta) labels of its steps.  Step i carries the
weight b_i = sigma(M_i / M_{i-1}) > 0 and the integer
S_i = theta(M) b_i - sigma(M) theta(M_i / M_{i-1}), with sum S_i = 0.
The score of weights Gamma_1 <= ... <= Gamma_t is
sum Gamma_i S_i / sqrt(sum b_i Gamma_i^2).  Its maximizer over the
ordered cone is the b-weighted non-decreasing fit of S_i / b_i, read off
the least concave majorant of the cumulative graph.  _chain_score pools
adjacent violators in integers, equal means too, so Gamma strictly
increases exactly when each block is one step; _merges is the one merge
rule and _square_with the one score formula.  Since sigma(M) and
theta(M) are fixed, what a chain's prefix hands on to any continuation
is its stack of pooled blocks (W, S), however many steps pooled into
each, so the search is a dynamic program on interned (W, S) stacks.
It runs on the exact quotient of the inclusion DAG (_quotient): a class
holds the subreps with one dimension vector and one multiset of
predecessor classes, and each class edge carries its count k, so the
chains to a class number sum k chains[c'] and a tie is counted in
chains, those carrying the label sequence of a stack at the best score
square, the last labels down it.  The winner's chain of classes is
lifted to subreps from M down, the one member of each class below the
subrep above it.  Each stack carries its score square from the stack
below it, so the stacks reached at M are compared in one pass; the
winner alone is pooled again, by _chain_score, as a cross-check and for
its Gamma (_gamma).  Score squares are held and compared as integer
pairs, so comparisons and ties are exact; the best one is handed back
as a Fraction, 0 when no chain scores above 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress, count
from math import gcd, lcm

from .errors import (
    EnumerationBudgetError,
    SemistableInputError,
    TheoremContradictionError,
)
from .quiver import (
    Filtration,
    StabilityParams,
    SubrepLattice,
    enumerate_subreps,  # unused here; perfbench/tracing.py wraps this binding
    is_semistable,  # unused here; perfbench/tracing.py wraps this binding
    slope,
)


# ---------------------------------------------------------------------------
# chain search


def _merges(top, w, x):
    """Whether the step (w, x) pools into the block top = (W, S, ...)
    below it: its mean x/w is not above S/W (cross-multiplied, w, W > 0)."""
    return top[1] * w >= x * top[0]


def _square_with(square, top):
    """The score square (num, den) of a block stack from that of the
    stack under its top block (W, S, ...): den is the lcm of the stack's
    W and num = sum S^2 (den / W), so the score is sqrt(num / den)."""
    (num, den), (w, x) = square, top[:2]
    wl = lcm(den, w)
    return num * (wl // den) + x * x * (wl // w), wl


def _chain_score(chain_dims, tm, sm):
    """Pooled blocks (W, S, number of steps) and score square
    sum S^2 / W, a Fraction, of a chain given cumulative (sigma, theta)
    pairs of its steps, ending at (sm, tm).  A block carries W = sum b_i
    and S = sum S_i (see the module docstring); two blocks merge while S/W
    does not increase, so the block means strictly increase.
    """
    blocks = []
    prev_s, prev_t = 0, 0
    for s, t in chain_dims:
        w = s - prev_s
        x, n = tm * w - sm * (t - prev_t), 1
        prev_s, prev_t = s, t
        while blocks and _merges(blocks[-1], w, x):
            w1, x1, n1 = blocks.pop()
            w, x, n = w + w1, x + x1, n + n1
        blocks.append((w, x, n))
    square = reduce(_square_with, blocks, (0, 1))
    return blocks, Fraction(*square)


def _gamma(blocks):
    """The weights of pooled blocks, one per step: the primitive integer
    vector of the block means S/W, or all zeros when every block sum is 0."""
    if all(x == 0 for _w, x, _n in blocks):
        return (0,) * sum(n for _w, _x, n in blocks)
    denom = lcm(*(w // gcd(w, x) for w, x, _n in blocks))
    nums = [x * denom // w for w, x, _n in blocks]
    g = gcd(*nums)
    return tuple(y // g for y, (_w, _x, n) in zip(nums, blocks) for _ in range(n))


def _quotient(below, keys):
    """The exact quotient of a DAG for the Kempf search.  below[j] is
    the bit mask of node j and its predecessors, which all come before j.

    The class of j is keys[j] with the multiset of its predecessors'
    classes, as (class, count) pairs in class order, found in one pass
    in node order.  Node j counts its predecessors per class with one AND
    of its mask per class so far.  The members of a class carry the same
    search states and, an edge standing for count edges, the same numbers
    of chains.  Returns (members, lower, first): each class's bit mask of
    nodes, its (class, count) predecessors and its first node, the
    classes numbered in the order of first nodes.
    """
    members, lower, first = [], [], []
    classes = {}  # (key, classes, counts) -> class
    for j, mask in enumerate(below):
        counts = [(mask & inside).bit_count() for inside in members]
        cs = tuple(compress(count(), counts))
        ns = tuple(filter(None, counts))
        c = classes.setdefault((keys[j], cs, ns), len(members))
        if c == len(members):
            members.append(0)
            lower.append(tuple(zip(cs, ns)))
            first.append(j)
        members[c] |= 1 << j
    return members, lower, first


def _chain_index_sets(lat: SubrepLattice):
    """The exact quotient (_quotient) of the lattice's inclusion DAG,
    keyed on dimension vectors, so one quotient serves every (sigma,
    theta): (members, lower, first), the zero subrep's class first and
    M's last.  The chains from 0 to M, sum k chains[c'] over the (c', k)
    predecessors of each class, are charged against the lattice's budget
    before any is searched."""
    members, lower, first = _quotient(lat._below, lat.dims)
    chains = [1]  # chains[c]: strictly increasing chains from 0 to a member of c
    for pre in lower[1:]:
        chains.append(sum(k * chains[i] for i, k in pre))
    if chains[-1] > lat.budget:
        raise EnumerationBudgetError(chains[-1], lat.budget, "chains")
    return members, lower, first


def _quotient_search(below, quotient, labels):
    """_kempf_search on the quotient (members, lower, first) of the DAG
    below (as _quotient reads it), labels[j] read at each class's first
    node.  The winner's chain of classes is lifted to nodes from the last
    one down: the one member of each class below the node above it, the
    lowest bit of their AND, which the winner's chain count of 1 makes
    the only one."""
    members, lower, first = quotient
    best, winner = _kempf_search(lower, [labels[j] for j in first])
    if winner is None:
        return best, None
    chain, gamma = winner
    nodes = [len(below) - 1]
    for c in reversed(chain[:-1]):
        inside = below[nodes[-1]] & members[c]
        nodes.append((inside & -inside).bit_length() - 1)
    return best, (tuple(reversed(nodes)), gamma)


def _kempf_search(lower, labels):
    """Exhaustive Kempf search over the chains from node 0 to the last
    node of a transitively closed DAG, such as the inclusion DAG and its
    quotient, lower[j] being the (predecessor, count) pairs of j, each
    edge standing for count parallel edges, and labels[j] the cumulative
    (sigma, theta) of j.

    A chain is searched as the PAV block stack of its prefix: the step
    from node i to node j depends only on labels[i] and labels[j], and
    what a prefix hands on to any continuation is its stack of blocks
    (W, S), however many steps pooled into each.  Each stack is interned
    as (below, W, S), below being the id of the stack under its top
    block, and states[j] holds the ids of the stacks of the chains from 0
    to j.  A stack fixes its chains' last label, (W, (tm W - S) / sm)
    summed over its blocks, and its score square, carried from the stack
    below as it is interned.

    Returns (best score square, winner), the square a Fraction; if it is
    positive, winner is (node indices from 0, gamma) of the one chain with
    strictly increasing weights at that square, else None.  The chains
    with one step per block of a stack are those carrying its label
    sequence, the last labels down the stack; they are counted for each
    stack at that square, and any sum but 1 is raised, as is a winner
    that _chain_score, which gives gamma's blocks, scores other than its
    carried square.
    """
    sm, tm = labels[-1]
    # by state id, 0 being the empty stack: the id under the top block,
    # the top block, the last label and the score square (num, den)
    below, tops, last, squares = [0], [None], [(0, 0)], [(0, 1)]
    ids = {}  # (below, W, S) -> state id
    pushes = {}  # label of j -> {state id: state id after the step to j}
    states = [{0}]
    for j in range(1, len(lower)):
        sj, tj = lab = labels[j]
        memo = pushes.setdefault(lab, {})
        here = set().union(*(states[i] for i, _k in lower[j]))
        for sid in here - memo.keys():
            si, ti = last[sid]
            w = sj - si
            x, base = tm * w - sm * (tj - ti), sid
            while base and _merges(tops[base], w, x):
                w1, x1 = tops[base]
                w, x, base = w + w1, x + x1, below[base]
            new = memo[sid] = ids.setdefault((base, w, x), len(tops))
            if new == len(tops):
                below.append(base)
                tops.append((w, x))
                last.append(lab)
                squares.append(_square_with(squares[base], tops[-1]))
        states.append(set(map(memo.__getitem__, here)))
    (num, den), at_best = (0, 1), []
    for sid in states[-1]:
        n, d = squares[sid]
        if n * den > num * d:
            (num, den), at_best = (n, d), []
        if n * den == num * d:
            at_best.append(sid)
    if not num:
        return Fraction(0), None
    carried = []  # (chains with one step per block, state id, label sequence)
    for sid in at_best:
        seq, s = (), sid
        while s:
            seq, s = (last[s],) + seq, below[s]
        carried.append((_chains_carrying(lower, labels, seq), sid, seq))
    ties = sum(n for n, _sid, _seq in carried)
    if ties != 1:
        raise TheoremContradictionError(
            f"{ties} chains with strictly increasing weights "
            f"tie at the maximal score"
        )
    _n, sid, seq = max(carried)
    blocks, best = _chain_score(seq, tm, sm)
    if best != Fraction(num, den):
        raise TheoremContradictionError("winner's score differs from its carried score")
    # the one chain carrying the winner's sequence, one block per step:
    # a chain's stack where a block starts is the stack below, held by a
    # node that the DAG, transitively closed, lists below the block's end
    chain = [len(lower) - 1]
    while sid:
        sid = below[sid]
        chain.append(next(i for i, _k in lower[chain[-1]] if sid in states[i]))
    return best, (tuple(reversed(chain)), _gamma(blocks))


def _chains_carrying(lower, labels, seq):
    """The number of chains from node 0 to the last node whose label
    sequence is seq, in one pass over the nodes carrying its labels.  The
    sigma of the labels strictly increases along a chain, so each label
    of seq has one position."""
    at = {lab: k for k, lab in enumerate(seq, 1)}
    pos = [0] + [at.get(lab) for lab in labels[1:]]
    counts = [1] + [0] * (len(lower) - 1)
    for j in range(1, len(lower)):
        if pos[j] is not None:
            counts[j] = sum(k * counts[i] for i, k in lower[j] if pos[i] == pos[j] - 1)
    return counts[-1]


def kempf_filtration(lat: SubrepLattice, params: StabilityParams):
    """Maximally destabilizing weighted filtration, by exhaustive scoring
    of every strictly increasing chain ending at the whole representation;
    SemistableInputError when none scores above 0, the input semistable.

    The chains are charged against the lattice's budget.  Returns
    (filtration, gamma, score square), the square a positive Fraction.
    The winner must have strictly increasing weights; a tie between two
    distinct such chains at the maximal score contradicts uniqueness and
    is raised.
    """
    labels = lat.labels(params)  # first, so the zero representation is refused
    best, winner = _quotient_search(lat._below, _chain_index_sets(lat), labels)
    if winner is None:
        raise SemistableInputError("no chain scores above 0")
    chain, gamma = winner
    filtration = Filtration(lat.rep, tuple(lat.subs[i] for i in chain[1:]))
    # v_i = theta(M) - sigma(M) slope_i increases iff the slopes decrease
    slopes = [slope(d, params) for d in filtration.quotient_dims()]
    if not all(a > b for a, b in zip(slopes, slopes[1:])):
        raise TheoremContradictionError("winning chain has a non-convex graph")
    return filtration, gamma, best


def kempf_semistability(lat: SubrepLattice, params: StabilityParams) -> bool:
    """Semistability via the numerical criterion: no chain admits
    non-decreasing weights with positive pairing, read off the best score
    square of _kempf_search, which also checks an unstable input for a tie."""
    labels = lat.labels(params)
    return _quotient_search(lat._below, _chain_index_sets(lat), labels)[0] <= 0

