"""Filtration graphs, the normalized destabilizing score, and the search
for the maximally destabilizing weighted filtration.

A filtration of an unstable representation is encoded as a graph: weights
b^i > 0 (total dimensions of the quotients) and a vector v with
sum_i b^i v_i = 0.  The score of a weight vector Gamma_1 <= ... <= Gamma_{t+1}
is (Gamma, v) / ||Gamma|| in the b-weighted inner product.  Its maximizer
over the ordered cone is read off the least concave majorant of the
cumulative points (b_i, w_i), computed exactly by pooling adjacent
violators.  Scores are kept as (sign, square) pairs so comparisons and
tie detection are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import SemistableInputError, TheoremContradictionError
from .quiver import (
    DEFAULT_BUDGET,
    Filtration,
    StabilityParams,
    SubrepLattice,
    enumerate_subreps,  # unused here; perfbench/tracing.py wraps this binding
    is_semistable,
    sigma_of,
    theta_of,
    _nonzero_lattice,
)


@dataclass(frozen=True, order=False)
class ExactScore:
    """The real number sign * sqrt(square), compared exactly."""

    sign: int
    square: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if self.square < 0:
            raise ValueError("square must be non-negative")
        if (self.sign == 0) != (self.square == 0):
            raise ValueError("sign is zero exactly when the square is zero")

    def _key(self):
        return (self.sign, self.sign * self.square)

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def is_positive(self) -> bool:
        return self.sign > 0

    @staticmethod
    def from_pairing(pairing: Fraction, norm_square: Fraction) -> "ExactScore":
        """Score with value pairing / sqrt(norm_square), norm_square > 0."""
        if norm_square <= 0:
            raise ValueError("norm_square must be positive")
        if pairing == 0:
            return ZERO_SCORE
        sign = 1 if pairing > 0 else -1
        return ExactScore(sign, pairing * pairing / norm_square)


ZERO_SCORE = ExactScore(0, Fraction(0))


@dataclass(frozen=True)
class FiltrationGraph:
    """Weights b^i > 0 and vector v with sum b^i v_i = 0."""

    b: tuple  # positive Fractions (integers in the quiver case)
    v: tuple  # Fractions

    def __post_init__(self):
        if len(self.b) != len(self.v) or not self.b:
            raise ValueError("b and v must be non-empty and of equal length")
        if any(x <= 0 for x in self.b):
            raise ValueError("all weights b^i must be positive")
        if sum(bi * vi for bi, vi in zip(self.b, self.v)) != 0:
            raise ValueError("sum of b^i v_i must vanish")

    def cumulative(self):
        """Points (b_i, w_i), i = 0..t+1, with w^i = -b^i v_i."""
        pts = [(Fraction(0), Fraction(0))]
        bacc = Fraction(0)
        wacc = Fraction(0)
        for bi, vi in zip(self.b, self.v):
            bacc += bi
            wacc += -bi * vi
            pts.append((bacc, wacc))
        return pts


def graph_of(f: Filtration, params: StabilityParams) -> FiltrationGraph:
    """b^i = sigma(M^i), v_i = theta(M) - sigma(M)/sigma(M^i) * theta(M^i)."""
    tm = theta_of(f.parent.dims, params)
    sm = sigma_of(f.parent.dims, params)
    b = []
    v = []
    for d in f.quotient_dims():
        si = sigma_of(d, params)
        if si == 0:
            raise AssertionError("zero-total-dimension quotient in a strict chain")
        b.append(Fraction(si))
        v.append(Fraction(tm) - Fraction(sm, si) * theta_of(d, params))
    return FiltrationGraph(tuple(b), tuple(v))


def _pav_nondecreasing(v, b):
    """Weighted isotonic (non-decreasing) fit of v; exact block means.

    Equivalent to reading the slopes off the least concave majorant of
    the cumulative graph: adjacent blocks merge while their means are
    out of order, and each merged block carries its weighted mean.
    """
    blocks = []  # (weight sum, weighted value sum, multiplicity)
    for vi, bi in zip(v, b):
        blocks.append([bi, bi * vi, 1])
        while len(blocks) > 1:
            w2, s2, c2 = blocks[-1]
            w1, s1, c1 = blocks[-2]
            if s1 * w2 > s2 * w1:  # mean of left block exceeds mean of right
                blocks.pop()
                blocks[-1] = [w1 + w2, s1 + s2, c1 + c2]
            else:
                break
    out = []
    for w, s, c in blocks:
        mean = s / w
        out.extend([mean] * c)
    return tuple(out)


def _primitive(gamma):
    """Scale to the primitive integer vector with the same orientation."""
    if all(x == 0 for x in gamma):
        return tuple(Fraction(0) for _ in gamma)
    denom = lcm(*(x.denominator for x in gamma))
    ints = [int(x * denom) for x in gamma]
    g = gcd(*ints)
    return tuple(Fraction(x, g) for x in ints)


def convex_envelope(g: FiltrationGraph) -> tuple:
    """Optimal weights for the graph: the non-decreasing vector whose
    blocks carry the b-weighted means of v.

    Returns the all-zero sentinel when the majorant is flat, i.e. the
    score is non-positive on the whole ordered cone.  Otherwise the
    result is normalized to the primitive integer vector (no sign flip).
    """
    gamma = _pav_nondecreasing(g.v, g.b)
    return _primitive(gamma)


def is_zero_weights(gamma) -> bool:
    return all(x == 0 for x in gamma)


def mu_v(gamma, g: FiltrationGraph) -> ExactScore:
    """(Gamma, v) / ||Gamma|| in the b-weighted metric, as an exact score."""
    if len(gamma) != len(g.v):
        raise ValueError("length mismatch")
    if is_zero_weights(gamma):
        raise ValueError("score undefined for the zero weight vector")
    pairing = sum(bi * gi * vi for bi, gi, vi in zip(g.b, gamma, g.v))
    norm_sq = sum(bi * gi * gi for bi, gi in zip(g.b, gamma))
    return ExactScore.from_pairing(Fraction(pairing), Fraction(norm_sq))


def kempf_function(f: Filtration, gamma, params: StabilityParams) -> ExactScore:
    """Normalized destabilizing score of a weighted filtration,
    computed from the collected numerator and the sigma-weighted norm."""
    if is_zero_weights(gamma):
        raise ValueError("score undefined for the zero weight vector")
    tm = theta_of(f.parent.dims, params)
    sm = sigma_of(f.parent.dims, params)
    num = Fraction(0)
    norm_sq = Fraction(0)
    for gi, d in zip(gamma, f.quotient_dims()):
        si = sigma_of(d, params)
        num += gi * (tm * si - sm * theta_of(d, params))
        norm_sq += si * gi * gi
    return ExactScore.from_pairing(num, norm_sq)


def mu_chi(f: Filtration, gamma, params: StabilityParams) -> Fraction:
    """Numerical pairing of the weighted filtration with the stability
    character: sum_i Gamma_i [theta(M) sigma(M^i) - sigma(M) theta(M^i)]."""
    tm = theta_of(f.parent.dims, params)
    sm = sigma_of(f.parent.dims, params)
    total = Fraction(0)
    for gi, d in zip(gamma, f.quotient_dims()):
        total += gi * (tm * sigma_of(d, params) - sm * theta_of(d, params))
    return total


def mu_chi_per_vertex(f: Filtration, gamma, params: StabilityParams) -> Fraction:
    """Same pairing via the per-vertex character exponents
    theta(d) sigma_v - sigma(d) theta_v; must agree with mu_chi exactly."""
    m = f.parent
    tm = theta_of(m.dims, params)
    sm = sigma_of(m.dims, params)
    qdims = f.quotient_dims()
    total = Fraction(0)
    for v in m.quiver.vertices:
        exponent = tm * params.sigma[v] - sm * params.theta[v]
        inner = sum(gi * d[v] for gi, d in zip(gamma, qdims))
        total += exponent * inner
    return total


def optimal_weights(f: Filtration, params: StabilityParams):
    """Best weights for a fixed chain and their score.

    Returns (gamma, score); gamma is the zero sentinel with a zero score
    when no positive score exists on this chain.
    """
    g = graph_of(f, params)
    gamma = convex_envelope(g)
    if is_zero_weights(gamma):
        return gamma, ZERO_SCORE
    return gamma, mu_v(gamma, g)


# ---------------------------------------------------------------------------
# chain search


def _chain_score(chain_dims, tm, sm):
    """Envelope weights and score for a chain given cumulative
    (sigma, theta) pairs of its steps, ending at (sm, tm)."""
    b = []
    v = []
    prev_s, prev_t = 0, 0
    for s, t in chain_dims:
        bi = s - prev_s
        ti = t - prev_t
        b.append(Fraction(bi))
        v.append(Fraction(tm) - Fraction(sm, bi) * ti)
        prev_s, prev_t = s, t
    g = FiltrationGraph(tuple(b), tuple(v))
    gamma = convex_envelope(g)
    if is_zero_weights(gamma):
        return gamma, ZERO_SCORE, g
    return gamma, mu_v(gamma, g), g


def _ascending_chains(lower, j):
    """All strictly increasing index chains ending at j, each once."""
    yield (j,)
    for i in lower[j]:
        for c in _ascending_chains(lower, i):
            yield c + (j,)


def _chain_index_sets(lat: SubrepLattice):
    """Non-zero subreps in canonical order, plus their strict-inclusion
    predecessor lists (indices into that list) and the index of the
    whole representation."""
    subs = lat.subs[1:]
    lower = [
        [i - 1 for i in range(1, j) if lat.contains(j, i)]
        for j in range(1, len(lat.subs))
    ]
    return subs, lower, len(subs) - 1


def _chain_search_input(lat: SubrepLattice, params: StabilityParams):
    """Shared set-up of both chain searches: the DAG of _chain_index_sets,
    the (sigma, theta) label of each non-zero subrep, and theta(M),
    sigma(M)."""
    subs, lower, full_idx = _chain_index_sets(lat)
    st = lat.labels(params)[1:]
    sm, tm = st[full_idx]
    return subs, lower, full_idx, st, tm, sm


def _strictly_increasing(gamma) -> bool:
    return all(a < b for a, b in zip(gamma, gamma[1:]))


def kempf_filtration(
    m,
    params: StabilityParams,
    budget: int = DEFAULT_BUDGET,
    heuristic_prune: bool = False,
):
    """Maximally destabilizing weighted filtration of an unstable
    representation, by exhaustive scoring of every strictly increasing
    chain ending at the whole representation.

    m is a Representation or its SubrepLattice.  Returns (filtration,
    gamma, score).  The winner must have strictly increasing weights; a
    tie between two distinct such chains at the maximal score
    contradicts uniqueness and is raised.

    With heuristic_prune, chains are restricted to steps whose slope
    exceeds the ambient slope (true of the expected winner); this
    assumes the very correspondence the exhaustive mode verifies, so it
    is off by default.
    """
    lat = _nonzero_lattice(m, budget)
    if is_semistable(lat, params):
        raise SemistableInputError("the representation is semistable")
    subs, lower, full_idx, st, tm, sm = _chain_search_input(lat, params)

    allowed = None
    if heuristic_prune:
        mu_amb = Fraction(tm, sm)
        allowed = {
            i
            for i in range(len(subs))
            if i == full_idx or Fraction(st[i][1], st[i][0]) > mu_amb
        }
        lower = [
            [i for i in pre if i in allowed] if j in allowed else []
            for j, pre in enumerate(lower)
        ]

    best_score = None
    best_strict = []  # (chain, gamma) with strictly increasing gamma
    for chain in _ascending_chains(lower, full_idx):
        gamma, score, _g = _chain_score([st[i] for i in chain], tm, sm)
        if best_score is None or score > best_score:
            best_score = score
            best_strict = []
        if score == best_score and _strictly_increasing(gamma):
            best_strict.append((chain, gamma))

    if not best_score.is_positive():
        raise AssertionError(
            "unstable input must admit a positive score"
        )
    if len(best_strict) != 1:
        raise TheoremContradictionError(
            f"{len(best_strict)} chains with strictly increasing weights "
            f"tie at the maximal score"
        )
    chain, gamma = best_strict[0]
    filtration = Filtration(lat.rep, tuple(subs[i] for i in chain))
    g = graph_of(filtration, params)
    if not _strictly_increasing(g.v):
        raise TheoremContradictionError(
            "winning chain has a non-convex graph"
        )
    return filtration, gamma, best_score


def kempf_semistability(
    m, params: StabilityParams, budget: int = DEFAULT_BUDGET
) -> bool:
    """Semistability via the numerical criterion: no chain admits
    non-decreasing weights with positive pairing, decided by checking
    the optimal score of every chain.  m: a Representation or its
    SubrepLattice."""
    lat = _nonzero_lattice(m, budget)
    _subs, lower, full_idx, st, tm, sm = _chain_search_input(lat, params)
    for chain in _ascending_chains(lower, full_idx):
        _gamma, score, _g = _chain_score([st[i] for i in chain], tm, sm)
        if score.is_positive():
            return False
    return True


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
    out = []
    steps = list(f.steps)
    for pos, (lo, hi) in enumerate(zip(chain, chain[1:])):
        for k in lat.between(lo, hi)[:-1]:  # the last is hi itself
            cand = lat.subs[k]
            refined = steps[:pos] + [cand] + steps[pos:]
            rf = Filtration(lat.rep, tuple(refined))
            _gamma, score = optimal_weights(rf, params)
            if score > best_score:
                out.append((pos, cand, score))
    return out
