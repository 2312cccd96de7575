"""Quiver representations over F_p and slope stability.

A representation assigns a vector space F_p^{d_v} to each vertex and a
matrix to each arrow.  Stability is measured by the slope theta(d) /
sigma(d) of the dimension vector, for an integer linear function theta
and a strictly positive integer linear function sigma.  Because the
field is finite, the subrepresentation lattice is finite and every
stability question is decided by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import (
    EnumerationBudgetError,
    InvalidSubrepresentationError,
    TheoremContradictionError,
    ZeroRepresentationError,
)
from .linalg import (
    Matrix,
    PrimeField,
    Subspace,
    apply,
    contains,
    enumerate_subspaces,
    subspace_count,
    subspace_sum,
)

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph; loops and parallel arrows allowed."""

    vertices: tuple
    arrows: tuple  # (source, target) pairs of vertex identifiers

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        vs = set(self.vertices)
        for src, tgt in self.arrows:
            if src not in vs or tgt not in vs:
                raise ValueError(f"arrow endpoint not a declared vertex: {(src, tgt)}")

    @staticmethod
    def kronecker(num_arrows: int = 1) -> "Quiver":
        return Quiver(("v0", "v1"), (("v0", "v1"),) * num_arrows)


@dataclass
class StabilityParams:
    """theta: integers per vertex; sigma: strictly positive integers."""

    theta: dict
    sigma: dict

    def __post_init__(self):
        if set(self.theta) != set(self.sigma):
            raise ValueError("theta and sigma must share the vertex set")
        for v, s in self.sigma.items():
            if not isinstance(s, int) or s < 1:
                raise ValueError(f"sigma must be a positive integer at {v}, got {s}")
        for v, t in self.theta.items():
            if not isinstance(t, int):
                raise ValueError(f"theta must be an integer at {v}, got {t}")


def theta_of(dims: dict, params: StabilityParams) -> int:
    if set(dims) != set(params.theta):
        raise ValueError("dimension vector and parameters disagree on vertices")
    return sum(params.theta[v] * d for v, d in dims.items())


def sigma_of(dims: dict, params: StabilityParams) -> int:
    if set(dims) != set(params.sigma):
        raise ValueError("dimension vector and parameters disagree on vertices")
    return sum(params.sigma[v] * d for v, d in dims.items())


def slope(dims: dict, params: StabilityParams) -> Fraction:
    if all(d == 0 for d in dims.values()):
        raise ZeroRepresentationError("slope of the zero dimension vector")
    return Fraction(theta_of(dims, params), sigma_of(dims, params))


def reparam_theta(params: StabilityParams, a: int, b: int) -> StabilityParams:
    """theta -> a*theta + b*sigma with a >= 1; sigma unchanged."""
    if a < 1:
        raise ValueError("a must be a positive integer")
    theta = {v: a * params.theta[v] + b * params.sigma[v] for v in params.theta}
    return StabilityParams(theta, dict(params.sigma))


@dataclass
class Representation:
    """One matrix per arrow, shape d_target x d_source, over one F_p."""

    quiver: Quiver
    field: PrimeField
    dims: dict
    arrow_maps: tuple  # Matrix per arrow, aligned with quiver.arrows

    def __post_init__(self):
        if set(self.dims) != set(self.quiver.vertices):
            raise ValueError("dims keys must match the quiver's vertices")
        for d in self.dims.values():
            if not isinstance(d, int) or d < 0:
                raise ValueError("dimensions must be non-negative integers")
        if len(self.arrow_maps) != len(self.quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for (src, tgt), m in zip(self.quiver.arrows, self.arrow_maps):
            if m.field != self.field:
                raise ValueError("arrow matrix over the wrong field")
            if m.nrows != self.dims[tgt] or m.ncols != self.dims[src]:
                raise ValueError(
                    f"arrow {src}->{tgt} matrix must be "
                    f"{self.dims[tgt]}x{self.dims[src]}, got {m.nrows}x{m.ncols}"
                )

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims.values())

    def full_spaces(self) -> dict:
        return {v: Subspace.full(self.field, self.dims[v]) for v in self.quiver.vertices}

    def zero_spaces(self) -> dict:
        return {v: Subspace.zero(self.field, self.dims[v]) for v in self.quiver.vertices}


@dataclass
class Subrepresentation:
    """A tuple of subspaces, one per vertex, closed under the arrow maps."""

    parent: Representation
    spaces: dict

    def __post_init__(self):
        if not is_subrep(self.parent, self.spaces):
            raise InvalidSubrepresentationError(
                "spaces are not closed under the arrow maps"
            )

    def dim_vector(self) -> dict:
        return {v: s.dim for v, s in self.spaces.items()}

    def is_zero(self) -> bool:
        return all(s.dim == 0 for s in self.spaces.values())

    def is_full(self) -> bool:
        return all(s.dim == self.parent.dims[v] for v, s in self.spaces.items())

    def canonical_key(self):
        order = self.parent.quiver.vertices
        return (
            tuple(self.spaces[v].dim for v in order),
            tuple(self.spaces[v].canonical_bytes() for v in order),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subrepresentation)
            and self.parent == other.parent
            and self.spaces == other.spaces
        )


def sub_contains(a: Subrepresentation, b: Subrepresentation) -> bool:
    """True iff b's spaces are contained in a's at every vertex."""
    return all(contains(a.spaces[v], b.spaces[v]) for v in a.spaces)


def is_subrep(m: Representation, spaces: dict) -> bool:
    """True iff the per-vertex subspaces are closed under every arrow map."""
    if set(spaces) != set(m.quiver.vertices):
        raise ValueError("spaces must be keyed by the quiver's vertices")
    for v in m.quiver.vertices:
        s = spaces[v]
        if s.field != m.field or s.ambient != m.dims[v]:
            raise ValueError(f"space at {v} has the wrong ambient or field")
    for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps):
        if not contains(spaces[tgt], apply(mat, spaces[src])):
            return False
    return True


def enumerate_subreps(m: Representation, budget: int = DEFAULT_BUDGET):
    """All subrepresentations, exactly once, in canonical order.

    Canonical order: dimension-vector lexicographic in vertex order,
    then concatenated RREF bytes per vertex.  Includes 0 and m.  The
    candidate count is charged against the budget before any subspace
    is built.
    """
    order = m.quiver.vertices
    candidate_count = prod(subspace_count(m.dims[v], m.field.p) for v in order)
    if candidate_count > budget:
        raise EnumerationBudgetError(candidate_count, budget)
    per_vertex = [enumerate_subspaces(m.dims[v], m.field) for v in order]
    out = []
    for combo in itertools.product(*per_vertex):
        spaces = dict(zip(order, combo))
        if all(
            spaces[tgt].contains_vector(mat.apply_to(row))
            for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps)
            for row in spaces[src].basis
        ):
            out.append(Subrepresentation(m, spaces))
    out.sort(key=Subrepresentation.canonical_key)
    return out


class SubrepLattice:
    """Every subrepresentation of one representation, enumerated once.

    ``subs`` is in canonical order: 0 first, the whole representation
    last, and each one after all those it strictly contains.  ``dims[i]``
    is the dimension vector of ``subs[i]`` as a tuple in vertex order.
    """

    def __init__(self, m: Representation, budget: int = DEFAULT_BUDGET):
        self.rep = m
        self.subs = enumerate_subreps(m, budget)
        order = m.quiver.vertices
        self.dims = [tuple(s.spaces[v].dim for v in order) for s in self.subs]

    def contains(self, j: int, i: int) -> bool:
        """True iff subs[i] is contained in subs[j]."""
        di, dj = self.dims[i], self.dims[j]
        if di == dj:
            return i == j
        if i == 0 or j == len(self.subs) - 1:
            return True
        return all(a <= b for a, b in zip(di, dj)) and sub_contains(
            self.subs[j], self.subs[i]
        )

    def between(self, lo: int, hi: int) -> list:
        """Indices k with subs[lo] strictly inside subs[k] inside subs[hi];
        by the correspondence theorem, the non-zero subrepresentations of
        subs[hi] / subs[lo]."""
        return [
            k
            for k in range(lo + 1, hi + 1)
            if self.contains(k, lo) and self.contains(hi, k)
        ]

    def labels(self, params: StabilityParams) -> list:
        """(sigma, theta) of every subrepresentation, in lattice order."""
        return [
            (sigma_of(d, params), theta_of(d, params))
            for d in (s.dim_vector() for s in self.subs)
        ]

    def chain_of(self, f: "Filtration") -> list:
        """Lattice indices of 0 and of each step of the filtration f."""
        if f.parent != self.rep:
            raise ValueError("the filtration is not of this representation")
        return [0] + [self.subs.index(s) for s in f.steps]


def restrict(m: Representation, s: Subrepresentation):
    """The subrepresentation as a representation in its own right.

    Coordinates at each vertex are the coefficients with respect to the
    RREF basis of s (equivalently, the pivot-column entries).
    """
    dims = s.dim_vector()
    maps = []
    for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps):
        bt = s.spaces[tgt]
        cols = []
        for row in s.spaces[src].basis:
            y = mat.apply_to(row)
            coords = tuple(y[p] for p in bt.pivots)
            # with an RREF basis the pivot entries are the coefficients
            recon = [0] * bt.ambient
            for c, brow in zip(coords, bt.basis):
                recon = [(a + c * b) % m.field.p for a, b in zip(recon, brow)]
            if tuple(recon) != y:
                raise InvalidSubrepresentationError(
                    "arrow image leaves the candidate subrepresentation"
                )
            cols.append(coords)
        if cols:
            rows = tuple(zip(*cols))
        else:
            rows = tuple(() for _ in range(dims[tgt]))
        maps.append(Matrix(m.field, dims[tgt], dims[src], rows))
    return Representation(m.quiver, m.field, dims, tuple(maps))


def quotient(m: Representation, s: Subrepresentation):
    """Quotient representation and per-vertex projection matrices.

    Coordinates on the quotient are the non-pivot coordinates of the
    RREF basis of s at each vertex (the canonical complement), so
    lifting a quotient subspace back is deterministic.
    """
    p = m.field.p
    projs = {}
    lifts = {}
    new_dims = {}
    for v in m.quiver.vertices:
        sv = s.spaces[v]
        dv = m.dims[v]
        pivots = sv.pivots
        nonpiv = [j for j in range(dv) if j not in set(pivots)]
        new_dims[v] = len(nonpiv)
        proj_rows = []
        for q in nonpiv:
            row = [0] * dv
            row[q] = 1
            for i, pc in enumerate(pivots):
                row[pc] = (-sv.basis[i][q]) % p
            proj_rows.append(tuple(row))
        projs[v] = Matrix(m.field, len(nonpiv), dv, tuple(proj_rows))
        lift_rows = []
        for r in range(dv):
            row = [0] * len(nonpiv)
            if r in nonpiv:
                row[nonpiv.index(r)] = 1
            lift_rows.append(tuple(row))
        lifts[v] = Matrix(m.field, dv, len(nonpiv), tuple(lift_rows))
    maps = tuple(
        projs[tgt].matmul(mat).matmul(lifts[src])
        for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps)
    )
    return Representation(m.quiver, m.field, new_dims, maps), projs


def preimage_spaces(m: Representation, s: Subrepresentation, quot_spaces: dict) -> dict:
    """Pull subspaces of quotient(m, s) back to subspaces of m containing s."""
    out = {}
    for v in m.quiver.vertices:
        sv = s.spaces[v]
        dv = m.dims[v]
        nonpiv = [j for j in range(dv) if j not in set(sv.pivots)]
        lifted = []
        for row in quot_spaces[v].basis:
            x = [0] * dv
            for val, j in zip(row, nonpiv):
                x[j] = val
            lifted.append(x)
        out[v] = subspace_sum(
            Subspace.from_spanning(m.field, dv, lifted), sv
        )
    return out


def _nonzero_lattice(m, budget: int) -> SubrepLattice:
    """The lattice of m, a Representation or already its SubrepLattice;
    stability is undefined for the zero representation."""
    rep = m.rep if isinstance(m, SubrepLattice) else m
    if rep.is_zero():
        raise ZeroRepresentationError("operation undefined for the zero representation")
    return m if rep is not m else SubrepLattice(m, budget)


def _quotient_key(labels: list, lo: int, k: int):
    """(slope, sigma) of subs[k] / subs[lo], from the lattice labels."""
    s = labels[k][0] - labels[lo][0]
    return Fraction(labels[k][1] - labels[lo][1], s), s


def _semistable_between(lat: SubrepLattice, labels: list, lo: int, hi: int) -> bool:
    """True iff subs[hi] / subs[lo] is semistable."""
    mu = _quotient_key(labels, lo, hi)[0]
    return all(_quotient_key(labels, lo, k)[0] <= mu for k in lat.between(lo, hi))


def _max_destabilizing_above(lat: SubrepLattice, labels: list, lo: int) -> int:
    """Index of the maximal destabilizing subobject of M / subs[lo],
    lifted to M: the unique N strictly containing subs[lo] that
    maximizes (slope, sigma) of N / subs[lo].  A tie contradicts
    uniqueness and is raised, never broken silently."""
    best = []
    best_key = None
    for k in lat.between(lo, len(lat.subs) - 1):
        key = _quotient_key(labels, lo, k)
        if best_key is None or key > best_key:
            best_key = key
            best = [k]
        elif key == best_key:
            best.append(k)
    if len(best) != 1:
        raise TheoremContradictionError(
            f"{len(best)} distinct subrepresentations tie at "
            f"(slope, total dim) = {best_key}"
        )
    return best[0]


def is_semistable(m, params: StabilityParams, budget: int = DEFAULT_BUDGET) -> bool:
    """m: a Representation or its SubrepLattice."""
    lat = _nonzero_lattice(m, budget)
    return _semistable_between(lat, lat.labels(params), 0, len(lat.subs) - 1)


def max_destabilizing(
    m, params: StabilityParams, budget: int = DEFAULT_BUDGET
) -> Subrepresentation:
    """The unique non-zero subrepresentation of maximal slope and, among
    those, maximal total dimension.  A tie contradicts uniqueness and is
    raised, never broken silently.  m: a Representation or its
    SubrepLattice."""
    lat = _nonzero_lattice(m, budget)
    return lat.subs[_max_destabilizing_above(lat, lat.labels(params), 0)]


@dataclass
class Filtration:
    """Strictly increasing chain of subrepresentations ending at the whole."""

    parent: Representation
    steps: tuple  # Subrepresentation, last one full, first one non-zero

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a filtration has at least one step")
        if self.steps[0].is_zero():
            raise ValueError("the first step must be non-zero")
        if not self.steps[-1].is_full():
            raise ValueError("the last step must be the full representation")
        for a, b in zip(self.steps, self.steps[1:]):
            if not (sub_contains(b, a) and a.dim_vector() != b.dim_vector()):
                raise ValueError("steps must be strictly increasing")

    def step_dims(self):
        return [s.dim_vector() for s in self.steps]

    def quotient_dims(self):
        """Dimension vectors of the successive quotients M_i / M_{i-1}."""
        out = []
        prev = {v: 0 for v in self.parent.quiver.vertices}
        for d in self.step_dims():
            out.append({v: d[v] - prev[v] for v in d})
            prev = d
        return out


def hn_filtration(m, params: StabilityParams, budget: int = DEFAULT_BUDGET) -> Filtration:
    """Harder-Narasimhan filtration as an iterated maximum over the
    lattice: M_1 is the maximal destabilizing subobject, and each next
    step is the maximal destabilizing subobject of M / M_{i-1}, read off
    the interval [M_{i-1}, M].  m: a Representation or its SubrepLattice."""
    lat = _nonzero_lattice(m, budget)
    labels = lat.labels(params)
    # the first step goes through the public name, which perfbench/tracing.py spans
    chain = [lat.subs.index(max_destabilizing(lat, params))]
    while chain[-1] != len(lat.subs) - 1:
        chain.append(_max_destabilizing_above(lat, labels, chain[-1]))
    return Filtration(lat.rep, tuple(lat.subs[i] for i in chain))


@dataclass
class HNReport:
    quotient_slopes: list
    strictly_descending: bool
    quotients_semistable: list

    @property
    def ok(self) -> bool:
        return self.strictly_descending and all(self.quotients_semistable)


def check_hn_properties(
    m, f: Filtration, params: StabilityParams, budget: int = DEFAULT_BUDGET
) -> HNReport:
    """Verify the two defining properties on a computed filtration f of
    m: strictly descending quotient slopes and semistable quotients, each
    quotient read off its interval in the lattice.  m: a Representation
    or its SubrepLattice."""
    lat = _nonzero_lattice(m, budget)
    chain = lat.chain_of(f)
    slopes = [slope(d, params) for d in f.quotient_dims()]
    descending = all(a > b for a, b in zip(slopes, slopes[1:]))
    labels = lat.labels(params)
    semis = [
        _semistable_between(lat, labels, lo, hi)
        for lo, hi in zip(chain, chain[1:])
    ]
    return HNReport(slopes, descending, semis)


def seesaw_check(
    m: Representation, s: Subrepresentation, params: StabilityParams
) -> list:
    """Check the seesaw biconditionals for X = s, Y = m, Z = m/s.

    For each comparison in {<, =, >}: X?Y iff X?Z iff Y?Z.  Returns the
    list of violated triples (expected empty).
    """
    if s.is_zero() or s.is_full():
        raise ValueError("need a proper non-zero subrepresentation")
    dx = s.dim_vector()
    dy = dict(m.dims)
    dz = {v: dy[v] - dx[v] for v in dy}
    x, y, z = slope(dx, params), slope(dy, params), slope(dz, params)
    violations = []
    for name, op in (("<", lambda a, b: a < b), ("==", lambda a, b: a == b),
                     (">", lambda a, b: a > b)):
        verdicts = (op(x, y), op(x, z), op(y, z))
        if len(set(verdicts)) != 1:
            violations.append((name, verdicts))
    return violations
