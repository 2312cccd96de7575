"""The normalized destabilizing score of a chain, and the search for the
maximally destabilizing weighted filtration.

A chain 0 < M_1 < ... < M_t = M of subrepresentations is read through
the cumulative (sigma, theta) labels of its steps.  Step i carries the
weight b_i = sigma(M_i / M_{i-1}) > 0 and the integer
S_i = theta(M) b_i - sigma(M) theta(M_i / M_{i-1}), with sum S_i = 0.
The score of weights Gamma_1 <= ... <= Gamma_t is
sum Gamma_i S_i / sqrt(sum b_i Gamma_i^2).  Its maximizer over the
ordered cone is the b-weighted non-decreasing fit of S_i / b_i, read off
the least concave majorant of the cumulative graph; _chain_score
computes it by pooling adjacent violators in integers, and is the one
scoring function of the library.  Scores are held and compared as
integers, so comparisons and tie detection are exact.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    EnumerationBudgetError,
    SemistableInputError,
    TheoremContradictionError,
)
from .quiver import (
    DEFAULT_BUDGET,
    Filtration,
    StabilityParams,
    SubrepLattice,
    enumerate_subreps,  # unused here; perfbench/tracing.py wraps this binding
    is_semistable,
    slope,
    _nonzero_lattice,
)


def _cross(op):
    """op on the cross-multiplied integers of two scores."""
    return lambda a, b: (
        op(a._num * b._den, b._num * a._den)
        if isinstance(b, ExactScore) else NotImplemented
    )


class ExactScore:
    """The real number sign * sqrt(square), held as the integers sign *
    (numerator of square) and its denominator, not always in lowest terms.
    Scores compare by cross-multiplying them: no comparison builds a Fraction.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, sign: int, square):
        square = Fraction(square)
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if square < 0:
            raise ValueError("square must be non-negative")
        if (sign == 0) != (square == 0):
            raise ValueError("sign is zero exactly when the square is zero")
        self._num, self._den = sign * square.numerator, square.denominator

    @classmethod
    def _positive(cls, num: int, den: int) -> "ExactScore":
        """+sqrt(num / den) for integers num, den > 0, unchecked."""
        score = object.__new__(cls)
        score._num, score._den = num, den
        return score

    sign = property(lambda self: (self._num > 0) - (self._num < 0))
    square = property(lambda self: Fraction(abs(self._num), self._den))
    __eq__, __lt__, __le__, __gt__, __ge__ = map(
        _cross, (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)
    )

    def is_positive(self) -> bool:
        return self._num > 0

    def __hash__(self):
        g = gcd(self._num, self._den)
        return hash((self._num // g, self._den // g))

    def __repr__(self):
        return f"ExactScore(sign={self.sign}, square={self.square!r})"


ZERO_SCORE = ExactScore(0, Fraction(0))


# ---------------------------------------------------------------------------
# chain search


def _chain_score(chain_dims, tm, sm):
    """Envelope weights and score for a chain given cumulative
    (sigma, theta) pairs of its steps, ending at (sm, tm).

    Pools adjacent violators in integers: a block of steps carries its
    weight W = sum b_i and its sum S = sum S_i (see the module
    docstring), and two blocks merge while S/W decreases.  Gamma is the
    primitive integer vector of the block means S/W, or all zeros with
    ZERO_SCORE when every block sum is 0; the score is sqrt(sum S^2 / W).
    """
    blocks = []  # (W, S, number of steps)
    prev_s, prev_t = 0, 0
    for s, t in chain_dims:
        w = s - prev_s
        x = tm * w - sm * (t - prev_t)
        prev_s, prev_t = s, t
        n = 1
        while blocks and blocks[-1][1] * w > x * blocks[-1][0]:
            w1, x1, n1 = blocks.pop()
            w, x, n = w + w1, x + x1, n + n1
        blocks.append((w, x, n))
    if all(x == 0 for _w, x, _n in blocks):
        return (0,) * len(chain_dims), ZERO_SCORE
    denom = lcm(*(w // gcd(w, x) for w, x, _n in blocks))
    nums = [x * denom // w for w, x, _n in blocks]
    g = gcd(*nums)
    gamma = tuple(y // g for y, (_w, _x, n) in zip(nums, blocks) for _ in range(n))
    wl = lcm(*(w for w, _x, _n in blocks))
    square_num = sum(x * x * (wl // w) for w, x, _n in blocks)
    return gamma, ExactScore._positive(square_num, wl)


def _chain_index_sets(lat: SubrepLattice):
    """Non-zero subreps in canonical order, plus their strict-inclusion
    predecessor lists (indices into that list), read off the lattice's
    containment masks, and the index of the whole representation."""
    subs = lat.subs[1:]
    lower = [
        [i - 1 for i in lat.strictly_below(j)[1:]] for j in range(1, len(lat.subs))
    ]
    return subs, lower, len(subs) - 1


def _chain_search_input(lat: SubrepLattice, params: StabilityParams):
    """Shared set-up of both chain searches: the DAG of _chain_index_sets
    and the (sigma, theta) label of each non-zero subrep.  The number of
    chains ending at M is charged against the lattice's budget before
    any chain is searched."""
    subs, lower, full_idx = _chain_index_sets(lat)
    chains = []  # chains[j]: strictly increasing chains ending at node j
    for pre in lower:
        chains.append(1 + sum(chains[i] for i in pre))
    if chains[full_idx] > lat.budget:
        raise EnumerationBudgetError(chains[full_idx], lat.budget, "chains")
    return subs, lower, full_idx, lat.labels(params)[1:]


def _label_sequences(lower, labels, top):
    """The distinct label sequences of the chains ending at each node
    0..top of a DAG (lower[j]: the predecessors of j, all below j), each
    with the number of chains that carry it: counts[j] maps a tuple of
    labels to its number of chains ending at j."""
    counts = []
    for j in range(top + 1):
        lab = labels[j]
        here = {(lab,): 1}
        for i in lower[j]:
            for seq, c in counts[i].items():
                seq += (lab,)
                here[seq] = here.get(seq, 0) + c
        counts.append(here)
    return counts


def _strictly_increasing(gamma) -> bool:
    return all(a < b for a, b in zip(gamma, gamma[1:]))


def _kempf_search(lower, labels, top):
    """Exhaustive Kempf search over the chains of a DAG ending at top,
    labels[j] being the cumulative (sigma, theta) of node j.

    Each distinct label sequence is scored once.  Returns (chain, gamma,
    score), chain being the node indices of the winner.  The winner must
    be the only chain with strictly increasing weights at the maximal
    score: the chain counts of every such sequence are summed, and any
    sum but 1 is raised as a contradiction.
    """
    sm, tm = labels[top]
    counts = _label_sequences(lower, labels, top)
    best_score = None
    best_strict = []  # (sequence, gamma) with strictly increasing gamma
    for seq in counts[top]:
        gamma, score = _chain_score(seq, tm, sm)
        if best_score is None or score > best_score:
            best_score = score
            best_strict = []
        if score == best_score and _strictly_increasing(gamma):
            best_strict.append((seq, gamma))

    if not best_score.is_positive():
        raise TheoremContradictionError(
            "unstable input admits no chain of positive score"
        )
    ties = sum(counts[top][seq] for seq, _gamma in best_strict)
    if ties != 1:
        raise TheoremContradictionError(
            f"{ties} chains with strictly increasing weights "
            f"tie at the maximal score"
        )
    seq, gamma = best_strict[0]
    # the one chain carrying seq, followed down from top by its labels
    chain = [top]
    for n in range(len(seq) - 1, 0, -1):
        chain.append(next(i for i in lower[chain[-1]] if seq[:n] in counts[i]))
    return tuple(reversed(chain)), gamma, best_score


def kempf_filtration(m, params: StabilityParams, budget: int = DEFAULT_BUDGET):
    """Maximally destabilizing weighted filtration of an unstable
    representation, by exhaustive scoring of every strictly increasing
    chain ending at the whole representation.

    m is a Representation or its SubrepLattice (whose budget then
    applies).  Returns (filtration, gamma, score).  The winner must have
    strictly increasing weights; a tie between two distinct such chains
    at the maximal score contradicts uniqueness and is raised.
    """
    lat = _nonzero_lattice(m, budget)
    if is_semistable(lat, params):
        raise SemistableInputError("the representation is semistable")
    subs, lower, full_idx, st = _chain_search_input(lat, params)
    chain, gamma, best_score = _kempf_search(lower, st, full_idx)
    filtration = Filtration(lat.rep, tuple(subs[i] for i in chain))
    # v_i = theta(M) - sigma(M) slope_i increases iff the slopes decrease
    slopes = [slope(d, params) for d in filtration.quotient_dims()]
    if not all(a > b for a, b in zip(slopes, slopes[1:])):
        raise TheoremContradictionError(
            "winning chain has a non-convex graph"
        )
    return filtration, gamma, best_score


def kempf_semistability(
    m, params: StabilityParams, budget: int = DEFAULT_BUDGET
) -> bool:
    """Semistability via the numerical criterion: no chain admits
    non-decreasing weights with positive pairing, decided by checking
    the optimal score of every distinct chain label sequence.  m: a
    Representation or its SubrepLattice (whose budget then applies)."""
    lat = _nonzero_lattice(m, budget)
    _subs, lower, full_idx, st = _chain_search_input(lat, params)
    sm, tm = st[full_idx]
    counts = _label_sequences(lower, st, full_idx)
    return not any(
        _chain_score(seq, tm, sm)[1].is_positive() for seq in counts[full_idx]
    )


def refinement_domination_violations(
    m,
    f: Filtration,
    params: StabilityParams,
    best_score: ExactScore,
    budget: int = DEFAULT_BUDGET,
):
    """Insert one extra subrepresentation between consecutive steps of
    the filtration f of m (or below the first) and check no refined
    chain scores higher.  m: a Representation or its SubrepLattice.

    Returns the list of violating refinements (expected empty).
    """
    lat = _nonzero_lattice(m, budget)
    chain = lat.chain_of(f)
    labels = lat.labels(params)
    sm, tm = labels[-1]
    out = []
    for pos, (lo, hi) in enumerate(zip(chain, chain[1:])):
        for k in lat.between(lo, hi)[:-1]:  # the last is hi itself
            refined = chain[1 : pos + 1] + [k] + chain[pos + 1 :]
            _gamma, score = _chain_score([labels[i] for i in refined], tm, sm)
            if score > best_score:
                out.append((pos, lat.subs[k], score))
    return out
