"""Quiver representations over F_p and slope stability.

A representation assigns a vector space F_p^{d_v} to each vertex and a
matrix to each arrow.  Stability is measured by the slope theta(d) /
sigma(d) of the dimension vector, for an integer linear function theta
and a strictly positive integer linear function sigma.  Because the
field is finite, the subrepresentation lattice is finite and every
stability question is decided by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter, mul

from .errors import (
    EnumerationBudgetError,
    InvalidSubrepresentationError,
    TheoremContradictionError,
    ZeroRepresentationError,
)
from .linalg import (
    PrimeField,
    apply,
    contains,
    enumerate_subspaces,
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

    @classmethod
    def _closed(cls, parent: Representation, spaces: dict) -> "Subrepresentation":
        """A subrepresentation whose closure the caller has already checked."""
        s = object.__new__(cls)
        s.parent = parent
        s.spaces = spaces
        return s

    def dim_vector(self) -> dict:
        return {v: s.dim for v, s in self.spaces.items()}

    def is_zero(self) -> bool:
        return all(s.dim == 0 for s in self.spaces.values())

    def is_full(self) -> bool:
        return all(s.dim == self.parent.dims[v] for v, s in self.spaces.items())


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


def _point(vec, p: int):
    """vec scaled so that its first non-zero entry is 1; None for 0."""
    lead = next((x for x in vec if x), 0)
    if not lead:
        return None
    inv = pow(lead, -1, p)
    return tuple(x * inv % p for x in vec)


def _bits(mask: int) -> list:
    """Indices of the set bits of mask, ascending."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _point_masks(targets: list, points: set, p: int) -> dict:
    """For each of the given points, the bit mask over targets of the
    subspaces that contain it.  Each target lists its own points or tests
    the given ones, whichever are fewer, so the work is close to the
    point-subspace incidences that exist."""
    masks = dict.fromkeys(points, 0)
    for i, t in enumerate(targets):
        if (p**t.dim - 1) // (p - 1) < len(points):
            hits = [pt for pt in t.points() if pt in masks]
        else:
            hits = [pt for pt in points if t.contains_vector(pt)]
        for pt in hits:
            masks[pt] |= 1 << i
    return masks


def _arrow_masks(image: dict, sources: list, memo: dict, everything: int) -> list:
    """For each subspace a in sources, the bit mask of the targets that
    contain the image of a: the AND of the masks in memo of the images of
    its basis rows.  image maps a row to its normalized image, None for 0."""
    out = []
    for a in sources:
        mask = everything
        for row in a.basis:
            pt = image[row]
            if pt is not None:
                mask &= memo[pt]
        out.append(mask)
    return out


def enumerate_subreps(m: Representation, budget: int = DEFAULT_BUDGET):
    """All subrepresentations, exactly once, in canonical order.

    Canonical order: dimension-vector lexicographic in vertex order,
    then concatenated RREF bytes per vertex, that is the list index at
    each vertex.  Includes 0 and m.  The full candidate product is
    charged against the budget before any subspace is built: the product
    over the vertices of the Galois numbers G_d (G_0 = 1, G_1 = 2,
    G_{k+1} = 2 G_k + (p^k - 1) G_{k-1}), counted only until it passes
    the budget, so the count raised is a lower bound.

    Each vertex's list holds only the subspaces its loops send into
    themselves (enumerate_subspaces tests the loops while it generates),
    and vertices of one shape, equal dimension and loop matrices, share
    one list and one memo of point masks.  Each other arrow u -> w gives
    every subspace a at u the bit mask of the subspaces at w that
    contain its image, transposed once if w comes first in quiver order.
    A join over the vertices in quiver order then visits only consistent
    assignments: the choices at a vertex are the AND of its arrows' masks
    at the choices made at the vertices already placed.
    """
    order = m.quiver.vertices
    p = m.field.p
    count = 1
    for v in order:
        prev, cur, pk = 0, 1, 1  # G_{k-1}, G_k and p^k, from k = 0
        for _k in range(m.dims[v]):
            prev, cur, pk = cur, 2 * cur + (pk - 1) * prev, pk * p
            if count * cur > budget:
                raise EnumerationBudgetError(count * cur, budget, "candidates")
        count *= cur
    # vertices of one shape, (dimension, loop matrices), share one list
    pos = {v: k for k, v in enumerate(order)}
    loops = [[] for _ in order]
    arrows = []  # (u, w, matrix) of each arrow u -> w with u != w
    for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps):
        if src == tgt:
            loops[pos[src]].append(mat)
        else:
            arrows.append((pos[src], pos[tgt], mat))
    shapes = [(m.dims[v], tuple(maps)) for v, maps in zip(order, loops)]
    built = {
        (d, maps): enumerate_subspaces(d, m.field, maps=maps)
        for d, maps in dict.fromkeys(shapes)
    }
    lists = [built[shape] for shape in shapes]
    # per shape of w: (u, w, normalized image of each distinct basis row
    # at u) of each arrow u -> w
    into = {}
    for u, w, mat in arrows:
        rows = {row for s in lists[u] for row in s.basis}
        image = {row: _point(mat.apply_to(row), p) for row in rows}
        into.setdefault(shapes[w], []).append((u, w, image))
    # per vertex k: (masks, placed vertex) of each arrow between k and a
    # vertex placed earlier; one point memo per shape, over the images of
    # every arrow into that shape
    earlier = [[] for _ in order]
    for shape, images in into.items():
        points = {pt for _u, _w, image in images for pt in image.values()}
        points.discard(None)
        memo = _point_masks(built[shape], points, p)
        everything = (1 << len(built[shape])) - 1
        for u, w, image in images:
            masks = _arrow_masks(image, lists[u], memo, everything)
            if u > w:  # for each c at w, the sources at u whose image c contains
                masks, sources = [0] * len(built[shape]), masks
                for a, mask in enumerate(sources):
                    for c in _bits(mask):
                        masks[c] |= 1 << a
                u, w = w, u
            earlier[w].append((masks, u))

    chosen = [0] * len(order)  # chosen[j]: index into lists[j]

    # depth-first with an explicit stack of (k, choice at vertex k - 1),
    # so no quiver is too long for the recursion limit
    out = []
    stack = [(0, 0)]
    while stack:
        k, b = stack.pop()
        if k:
            chosen[k - 1] = b
        if k == len(order):
            spaces = {v: lists[j][chosen[j]] for j, v in enumerate(order)}
            key = tuple(s.dim for s in spaces.values()), tuple(chosen)
            out.append((key, Subrepresentation._closed(m, spaces)))
        else:
            allowed = (1 << len(lists[k])) - 1
            for masks, u in earlier[k]:
                allowed &= masks[chosen[u]]
            stack.extend((k + 1, c) for c in _bits(allowed))
    out.sort(key=itemgetter(0))
    return [s for _key, s in out]


class SubrepLattice:
    """Every subrepresentation of one representation, enumerated once.

    ``subs`` is in canonical order: 0 first, the whole representation
    last, and each one after all those it strictly contains.  ``dims[i]``
    is the dimension vector of ``subs[i]`` as a tuple in vertex order.
    ``budget`` bounds the candidates enumerated here and the chains that
    the Kempf search reads off the lattice.
    """

    def __init__(self, m: Representation, budget: int = DEFAULT_BUDGET):
        self.rep = m
        self.budget = budget
        self.subs = enumerate_subreps(m, budget)
        order = m.quiver.vertices
        self.dims = [tuple(s.spaces[v].dim for v in order) for s in self.subs]

    @cached_property
    def _below(self) -> list:
        """_below[j]: bit mask of the indices i with subs[i] inside subs[j].

        Built per vertex over its distinct subspaces, which the subreps
        share.  RREF basis rows are normalized points, so b lies inside a
        iff a contains every basis row of b: the arrow masks of the
        identity give each b the mask of the spaces containing it.
        """
        masks = [-1] * len(self.subs)
        for v in self.rep.quiver.vertices:
            index = {}  # distinct subspace at v -> its position
            at = [index.setdefault(s.spaces[v], len(index)) for s in self.subs]
            members = [0] * len(index)  # mask of the subreps having each
            for i, k in enumerate(at):
                members[k] |= 1 << i
            rows = {row: row for b in index for row in b.basis}  # the identity
            memo = _point_masks(list(index), rows, self.rep.field.p)
            above = _arrow_masks(rows, index, memo, (1 << len(index)) - 1)
            inside = [0] * len(index)
            for b, mask in enumerate(above):
                for a in _bits(mask):
                    inside[a] |= members[b]
            masks = [m & inside[k] for m, k in zip(masks, at)]
        return masks

    def strictly_below(self, j: int) -> list:
        """Indices of the subrepresentations strictly inside subs[j], ascending."""
        return _bits(self._below[j] & ~(1 << j))

    def contains(self, j: int, i: int) -> bool:
        """True iff subs[i] is contained in subs[j]."""
        return self._below[j] >> i & 1 == 1

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
        order = self.rep.quiver.vertices
        if set(order) != set(params.theta):
            raise ValueError("dimension vector and parameters disagree on vertices")
        sigma = [params.sigma[v] for v in order]
        theta = [params.theta[v] for v in order]
        return [(sum(map(mul, sigma, d)), sum(map(mul, theta, d))) for d in self.dims]

    def chain_of(self, f: "Filtration") -> list:
        """Lattice indices of 0 and of each step of the filtration f."""
        if f.parent != self.rep:
            raise ValueError("the filtration is not of this representation")
        return [0] + [self.subs.index(s) for s in f.steps]


def _require_nonzero(lat: SubrepLattice):
    """Stability is undefined for the zero representation."""
    if lat.rep.is_zero():
        raise ZeroRepresentationError("operation undefined for the zero representation")


def _quotient_key(labels: list, lo: int, k: int):
    """(theta, sigma) of subs[k] / subs[lo], from the lattice labels; its
    slope is theta / sigma, sigma > 0."""
    return labels[k][1] - labels[lo][1], labels[k][0] - labels[lo][0]


def _semistable_between(lat: SubrepLattice, labels: list, lo: int, hi: int) -> bool:
    """True iff subs[hi] / subs[lo] is semistable."""
    t, s = _quotient_key(labels, lo, hi)
    for k in lat.between(lo, hi):
        tk, sk = _quotient_key(labels, lo, k)
        if tk * s > t * sk:
            return False
    return True


def _max_destabilizing_above(lat: SubrepLattice, labels: list, lo: int) -> int:
    """Index of the maximal destabilizing subobject of M / subs[lo],
    lifted to M: the unique N strictly containing subs[lo] that
    maximizes (slope, sigma) of N / subs[lo], compared by
    cross-multiplying.  A tie contradicts uniqueness and is raised,
    never broken silently."""
    best = []
    best_t, best_s = 0, 0
    for k in lat.between(lo, len(lat.subs) - 1):
        t, s = _quotient_key(labels, lo, k)
        # the sign of slope - best slope, or else of sigma - best sigma
        ahead = t * best_s - best_t * s or s - best_s
        if not best or ahead > 0:
            best_t, best_s = t, s
            best = [k]
        elif ahead == 0:
            best.append(k)
    if len(best) != 1:
        raise TheoremContradictionError(
            f"{len(best)} distinct subrepresentations tie at "
            f"(slope, total dim) = {(Fraction(best_t, best_s), best_s)}"
        )
    return best[0]


def is_semistable(lat: SubrepLattice, params: StabilityParams) -> bool:
    """True iff no subrepresentation has a slope above the whole's."""
    _require_nonzero(lat)
    return _semistable_between(lat, lat.labels(params), 0, len(lat.subs) - 1)


def max_destabilizing(lat: SubrepLattice, params: StabilityParams) -> Subrepresentation:
    """The unique non-zero subrepresentation of maximal slope and, among
    those, maximal total dimension.  A tie contradicts uniqueness and is
    raised, never broken silently."""
    _require_nonzero(lat)
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


def hn_filtration(lat: SubrepLattice, params: StabilityParams) -> Filtration:
    """Harder-Narasimhan filtration as an iterated maximum over the
    lattice: M_1 is the maximal destabilizing subobject, and each next
    step is the maximal destabilizing subobject of M / M_{i-1}, read off
    the interval [M_{i-1}, M]."""
    _require_nonzero(lat)
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
    lat: SubrepLattice, f: Filtration, params: StabilityParams
) -> HNReport:
    """Verify the two defining properties on a computed filtration f of
    lat.rep: strictly descending quotient slopes and semistable quotients,
    each quotient read off its interval in the lattice."""
    _require_nonzero(lat)
    chain = lat.chain_of(f)
    slopes = [slope(d, params) for d in f.quotient_dims()]
    descending = all(a > b for a, b in zip(slopes, slopes[1:]))
    labels = lat.labels(params)
    semis = [
        _semistable_between(lat, labels, lo, hi)
        for lo, hi in zip(chain, chain[1:])
    ]
    return HNReport(slopes, descending, semis)
