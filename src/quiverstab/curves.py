"""Closed-form calculators for curve-side examples.

Split bundles on the projective line carry their filtration on their
sleeve: filter by strictly descending degree.  The rank-2 and covering
formulas score candidate line subobjects; the rank-3 routine picks the
optimal weight triple between the two competing multi-index regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError


@dataclass(frozen=True)
class SplitBundle:
    """Direct sum of degree-a_i line bundle blocks with multiplicities b_i,
    degrees strictly decreasing."""

    blocks: tuple  # (degree, multiplicity) pairs

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block required")
        for a, b in self.blocks:
            if not isinstance(a, int) or not isinstance(b, int) or b < 1:
                raise ValueError("blocks are (integer degree, multiplicity >= 1)")
        degs = [a for a, _ in self.blocks]
        if not all(x > y for x, y in zip(degs, degs[1:])):
            raise ValueError("degrees must be strictly decreasing")

    @property
    def rank(self) -> int:
        return sum(b for _, b in self.blocks)

    @property
    def degree(self) -> int:
        return sum(a * b for a, b in self.blocks)


def p1_slope(e: SplitBundle) -> Fraction:
    """Degree over rank: the multiplicity-weighted average of the block degrees."""
    return Fraction(e.degree, e.rank)


def p1_hn(e: SplitBundle):
    """Filtration by degree: the i-th step collects the blocks of the i
    largest degrees.  Quotient slopes are the block degrees, strictly
    descending, and each quotient has constant slope."""
    return [SplitBundle(e.blocks[: i + 1]) for i in range(len(e.blocks))]


def rank2_value(deg_l: int, deg_e: int, s: int, eps_l: int, tau: Fraction) -> Fraction:
    """2 deg L - deg E + tau (s - 2 eps(L)), exact."""
    if not 0 <= eps_l <= s:
        raise ValueError("need 0 <= eps <= s")
    if s < 1:
        raise ValueError("s must be a positive integer")
    return 2 * deg_l - deg_e + Fraction(tau) * (s - 2 * eps_l)


@dataclass(frozen=True)
class Rank2Candidate:
    deg_l: int
    eps_l: int


@dataclass
class Rank2Result:
    best: Rank2Candidate
    value: Fraction
    verdict: str  # "unstable" | "semistable" | "ambiguous"
    tied: tuple


def rank2_best(candidates, deg_e: int, s: int, tau: Fraction) -> Rank2Result:
    """Maximizer over a user-supplied candidate list; positive maximum
    means unstable.  A tie between distinct candidates is reported as
    ambiguous rather than broken."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    scored = [
        (rank2_value(c.deg_l, deg_e, s, c.eps_l, tau), c) for c in candidates
    ]
    best_val = max(v for v, _ in scored)
    tied = tuple(c for v, c in scored if v == best_val)
    if len(set(tied)) > 1:
        verdict = "ambiguous"
    elif best_val > 0:
        verdict = "unstable"
    else:
        verdict = "semistable"
    return Rank2Result(tied[0], best_val, verdict, tied)


def covering_value(c0_dot_d: int, e: int, s: int, eps_d: int, tau: Fraction) -> Fraction:
    """-2 C0.D - e + tau (s - 2 eps(D)), the rank-2 value of deg L = -C0.D;
    positive means unstable."""
    return rank2_value(-c0_dot_d, e, s, eps_d, tau)


@dataclass(frozen=True)
class Rank3Slopes:
    """Subquotient slope triple v with sum zero, and tau > 0."""

    v: tuple  # three integers (or rationals) summing to zero
    tau: Fraction

    def __post_init__(self):
        if len(self.v) != 3:
            raise ValueError("v must have three components")
        if sum(self.v) != 0:
            raise ValueError("v must sum to zero")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


def rank3_case_vectors(s: Rank3Slopes):
    """The two candidate weight directions, one per multi-index regime."""
    v1, v2, v3 = (Fraction(x) for x in s.v)
    tau = Fraction(s.tau)
    x = (v1 + tau, v2 - 2 * tau, v3 + tau)
    y = (v1 - 2 * tau, v2 + 4 * tau, v3 - 2 * tau)
    return x, y


def rank3_weights(s: Rank3Slopes):
    """Case analysis for the optimal weight triple.

    Returns ("(1,3)", Gamma) when v1 + v3 + 2 tau <= 0, with Gamma
    proportional to the first candidate vector and normalized so
    Gamma_3 = 1; ("(2,2)", Gamma) when v1 + v3 - 4 tau >= 0, using the
    second; ("neither", None) in the ambiguous regime where the method
    does not pick a side.  The two conditions are mutually exclusive.
    Both are read off the candidate vectors x and y: x1 + x3 = v1 + v3 +
    2 tau, x3 = v3 + tau, y1 + y3 = v1 + v3 - 4 tau and y3 = v3 - 2 tau.
    """
    x, y = rank3_case_vectors(s)
    if x[0] + x[2] <= 0:
        case, vec, label = "(1,3)", x, "v3 + tau"
    elif y[0] + y[2] >= 0:
        case, vec, label = "(2,2)", y, "v3 - 2 tau"
    else:
        return "neither", None
    if vec[2] == 0:
        raise DegenerateInputError(f"{label} = 0: cannot normalize")
    return case, tuple(c / vec[2] for c in vec)
