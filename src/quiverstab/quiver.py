"""Quiver representations over F_p and slope stability.

A representation assigns a vector space F_p^{d_v} to each vertex and a
matrix to each arrow.  Stability is measured by the slope theta(d) /
sigma(d) of the dimension vector, for an integer linear function theta
and a strictly positive integer linear function sigma.  Because the
field is finite, the subrepresentation lattice is finite and every
stability question is decided by exhaustive enumeration.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, count
from operator import attrgetter, getitem, mul

from .errors import (
    EnumerationBudgetError,
    InvalidSubrepresentationError,
    TheoremContradictionError,
    ZeroRepresentationError,
)
from .linalg import (
    PrimeField,
    _Images,
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
            if type(s) is not int or s < 1:
                raise ValueError(f"sigma must be a positive integer at {v}, got {s}")
        for v, t in self.theta.items():
            if type(t) is not int:
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
        for v, d in self.dims.items():
            if type(d) is not int or d < 0:
                raise ValueError(f"dimension at {v} must be a non-negative integer")
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
    """True iff the per-vertex subspaces are closed under every arrow map:
    each arrow sends every basis row of its source space into its target's."""
    if set(spaces) != set(m.quiver.vertices):
        raise ValueError("spaces must be keyed by the quiver's vertices")
    for v in m.quiver.vertices:
        s = spaces[v]
        if s.field != m.field or s.ambient != m.dims[v]:
            raise ValueError(f"space at {v} has the wrong ambient or field")
    return all(
        spaces[tgt].contains_vector(mat.apply_to(row))
        for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps)
        for row in spaces[src].basis
    )


def _byte_bits() -> list:
    """_BYTE_BITS[b]: the offsets of the set bits of the byte b, ascending;
    the entries for 2^i to 2^(i+1) - 1 are those below 2^i plus bit i."""
    table = [()]
    for i in range(8):
        table += [t + (i,) for t in table]
    return table


_BYTE_BITS = _byte_bits()


def _bits(mask: int) -> list:
    """Indices of the set bits of mask, ascending: the non-zero bytes of
    mask are found in C, and each gives its set bits from _BYTE_BITS."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * k + i for k in compress(count(), data) for i in _BYTE_BITS[data[k]]]


class _Shape:
    """A vertex shape, a dimension d over F_p and its loop matrices: the
    subspaces of F_p^d that the loops send into themselves, in canonical
    order, and the bit mask of those that contain each point of F_p^d
    (None, the zero vector, lies in all), all built on the first read."""

    def __init__(self, d: int, field: PrimeField, loops: tuple):
        self.subspaces = tuple(enumerate_subspaces(d, field, maps=loops))
        self.dims = [t.dim for t in self.subspaces]

    @cached_property
    def masks(self) -> dict:
        """Each subspace lists its points once, and each point's mask is
        built once from the indices found, by one int.from_bytes over a
        bytearray; the whole space, last in the list, seeds every point."""
        *proper, whole = self.subspaces
        top = 1 << len(proper)
        masks, found = dict.fromkeys(whole.points(), top), defaultdict(list)
        for i, t in enumerate(proper):
            for pt in t.points():
                found[pt].append(i)
        for pt, hits in found.items():
            mask = bytearray((len(proper) + 7) // 8)
            for i in hits:
                mask[i >> 3] |= 1 << (i & 7)
            masks[pt] = top | int.from_bytes(mask, "little")
        masks[None] = 2 * top - 1
        return masks


# (d, p) -> the _Shape of a vertex with no loops, shared by every problem
_LOOP_FREE = {}


def _containers(rowsets, memo: dict, everything: int):
    """For each set of rows, in turn, the bit mask of the subspaces within
    everything that contain every row: the AND of the rows' masks in memo."""
    for rows in rowsets:
        mask = everything
        for row in rows:
            mask &= memo[row]
        yield mask


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
    one _Shape: its list and its point masks.  A loop-free shape depends
    only on (d, p), so one per process serves every problem; a looped one
    is built for this enumeration.  Each other arrow u -> w gives
    every subspace a at u the bit mask of the subspaces at w that
    contain its image, the AND of the point masks of its basis rows'
    images (the first read of w's masks fills them all), transposed once
    if w comes first in quiver order.
    A join over the vertices in quiver order then visits only consistent
    assignments: the choices at a vertex are the AND of its arrows' masks
    at the choices made at the vertices already placed.  It returns each
    subrep as its key (_Found), from which SubrepLattice builds its
    containment table and a subrep is built only when it is read.
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
    looped = {}  # this problem's looped shapes, by (dimension, loop matrices)
    shapes = []
    for v, maps in zip(order, map(tuple, loops)):
        d = m.dims[v]
        table, key = (looped, (d, maps)) if maps else (_LOOP_FREE, (d, p))
        if key not in table:
            table[key] = _Shape(d, m.field, maps)
        shapes.append(table[key])
    lists = [shape.subspaces for shape in shapes]
    # per vertex k: (masks, placed vertex) of each arrow between k and a
    # vertex placed earlier, off the target shape's point masks of the
    # normalized images of each source's basis rows
    earlier = [[] for _ in order]
    for u, w, mat in arrows:
        image, memo = _Images(mat), shapes[w].masks
        rowsets = (map(image.__getitem__, a.basis) for a in lists[u])
        masks = list(_containers(rowsets, memo, memo[None]))
        if u > w:  # for each c at w, the sources at u whose image c contains
            masks, sources = [0] * len(lists[w]), masks
            for a, mask in enumerate(sources):
                for c in _bits(mask):
                    masks[c] |= 1 << a
            u, w = w, u
        earlier[w].append((masks, u))

    chosen = [0] * len(order)  # chosen[j]: index into lists[j]
    dims = [shape.dims for shape in shapes]

    # depth-first with an explicit stack of (k, choice at vertex k - 1),
    # so no quiver is too long for the recursion limit
    keys = []
    stack = [(0, 0)]
    while stack:
        k, b = stack.pop()
        if k:
            chosen[k - 1] = b
        if k == len(order):
            keys.append((tuple(map(getitem, dims, chosen)), tuple(chosen)))
        else:
            allowed = (1 << len(lists[k])) - 1
            for masks, u in earlier[k]:
                allowed &= masks[chosen[u]]
            stack.extend((k + 1, c) for c in _bits(allowed))
    keys.sort()
    return _Found(m, shapes, keys)


class _Found(Sequence):
    """The subreps of m in canonical order, kept as keys[i], the dimension
    tuple and the list position at each vertex of the i-th, with shapes[k],
    the _Shape of vertex k.  A subrep is built when it is first read and
    kept, so later reads return that same object."""

    def __init__(self, m: Representation, shapes: list, keys: list):
        self.rep, self.shapes, self.keys = m, shapes, keys
        self._built = [None] * len(keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        if self._built[i] is None:
            at = zip(self.rep.quiver.vertices, self.shapes, self.keys[i][1])
            spaces = {v: shape.subspaces[b] for v, shape, b in at}
            self._built[i] = Subrepresentation._closed(self.rep, spaces)
        return self._built[i]

    def __eq__(self, other):
        same_kind = isinstance(other, (_Found, list))
        return list(self) == list(other) if same_kind else NotImplemented

    def index(self, s: Subrepresentation) -> int:
        """The index of s, by bisection in each shape's list (by dim, basis) and in keys."""
        if s.parent == self.rep:
            spaces = [s.spaces[v] for v in self.rep.quiver.vertices]
            key = tuple(t.dim for t in spaces), tuple(
                bisect_left(shape.subspaces, (t.dim, t.basis), key=attrgetter("dim", "basis"))
                for shape, t in zip(self.shapes, spaces))
            i = bisect_left(self.keys, key)
            if i < len(self) and self[i] == s:
                return i
        raise ValueError("not a subrepresentation in this lattice")


class SubrepLattice:
    """Every subrepresentation of one representation, enumerated once.

    ``subs`` is a read-only sequence in canonical order: 0 first, the
    whole representation last, and each one after all those it strictly
    contains.  ``dims[i]`` is the dimension vector of ``subs[i]`` as a
    tuple in vertex order; a subrep is built only when it is read.
    ``budget`` bounds the candidates enumerated here and the chains that
    the Kempf search reads off the lattice.
    """

    def __init__(self, m: Representation, budget: int = DEFAULT_BUDGET):
        self.rep = m
        self.budget = budget
        self.subs = enumerate_subreps(m, budget)
        self.dims = [dims for dims, _at in self.subs.keys]
        self._labels = None, None  # ((sigma, theta) in vertex order, labels)

    @cached_property
    def _below(self) -> list:
        """_below[j]: bit mask of the indices i with subs[i] inside subs[j].

        Built per vertex over the list positions of the subspaces the
        subreps use there, which enumeration hands over with the vertex
        shapes.  RREF basis rows are normalized points, so b lies inside
        a iff a contains every basis row of b: the AND of the shape's
        point masks of b's basis rows, within the subspaces used.
        """
        masks = [-1] * len(self.subs)
        for k, shape in enumerate(self.subs.shapes):
            at = [positions[k] for _dims, positions in self.subs.keys]
            members = {}  # position used at k -> mask of the subreps using it
            for i, b in enumerate(at):
                members[b] = members.get(b, 0) | 1 << i
            bases = [shape.subspaces[b].basis for b in members]
            above = _containers(bases, shape.masks, sum(1 << b for b in members))
            inside = [0] * len(shape.subspaces)
            for b, mask in zip(members, above):  # one mask held at a time
                for a in _bits(mask):
                    inside[a] |= members[b]
            masks = [mask & inside[b] for mask, b in zip(masks, at)]
        return masks

    def contains(self, j: int, i: int) -> bool:
        """True iff subs[i] is contained in subs[j]."""
        return self._below[j] >> i & 1 == 1

    def labels(self, params: StabilityParams) -> list:
        """(sigma, theta) of every subrepresentation, in lattice order: the
        one list kept, that of the last (sigma, theta) asked for, handed out
        again, so callers do not change it.  The zero representation has
        no stability, and its labels raise ZeroRepresentationError."""
        order = self.rep.quiver.vertices
        if set(order) != set(params.theta):
            raise ValueError("dimension vector and parameters disagree on vertices")
        key = tuple(params.sigma[v] for v in order), tuple(params.theta[v] for v in order)
        if self._labels[0] != key:
            if self.rep.is_zero():
                raise ZeroRepresentationError(
                    "operation undefined for the zero representation")
            sigma, theta = key
            self._labels = key, [
                (sum(map(mul, sigma, d)), sum(map(mul, theta, d))) for d in self.dims
            ]
        return self._labels[1]

    def chain_of(self, f: "Filtration") -> list:
        """Lattice indices of 0 and of each step of the filtration f."""
        if f.parent != self.rep:
            raise ValueError("the filtration is not of this representation")
        return [0] + [self.subs.index(s) for s in f.steps]


def _interval_maxima(lat: SubrepLattice, labels: list, lo: int, hi: int) -> list:
    """The indices k, ascending, with subs[lo] strictly inside subs[k]
    inside subs[hi] (by the correspondence theorem, the non-zero
    subrepresentations of subs[hi] / subs[lo]) at which subs[k] / subs[lo]
    has the maximal (slope, sigma), compared by cross-multiplying the
    labels.  subs[hi] / subs[lo] is semistable iff this is [hi]: a k inside
    hi other than hi has a smaller sigma."""
    below = lat._below
    s0, t0 = labels[lo]
    best = []
    best_t, best_s = 0, 0
    for k in _bits(below[hi]):
        if k <= lo or not below[k] >> lo & 1:
            continue
        s, t = labels[k][0] - s0, labels[k][1] - t0
        # the sign of slope - best slope, or else of sigma - best sigma
        ahead = t * best_s - best_t * s or s - best_s
        if not best or ahead > 0:
            best_t, best_s = t, s
            best = [k]
        elif ahead == 0:
            best.append(k)
    return best


def _max_destabilizing_above(lat: SubrepLattice, labels: list, lo: int) -> int:
    """Index of the maximal destabilizing subobject of M / subs[lo],
    lifted to M: the unique N strictly containing subs[lo] that
    maximizes (slope, sigma) of N / subs[lo].  A tie contradicts
    uniqueness and is raised, never broken silently."""
    best = _interval_maxima(lat, labels, lo, len(lat.subs) - 1)
    if len(best) != 1:
        (s, t), (s0, t0) = labels[best[0]], labels[lo]
        raise TheoremContradictionError(
            f"{len(best)} distinct subrepresentations tie at "
            f"(slope, sigma) = ({Fraction(t - t0, s - s0)}, {s - s0})"
        )
    return best[0]


def is_semistable(lat: SubrepLattice, params: StabilityParams) -> bool:
    """True iff no subrepresentation has a slope above the whole's."""
    full = len(lat.subs) - 1
    return _interval_maxima(lat, lat.labels(params), 0, full) == [full]


def max_destabilizing(lat: SubrepLattice, params: StabilityParams) -> Subrepresentation:
    """The unique non-zero subrepresentation of maximal slope and, among
    those, maximal sigma.  A tie contradicts uniqueness and is
    raised, never broken silently."""
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
    labels = lat.labels(params)
    chain = lat.chain_of(f)
    slopes = [slope(d, params) for d in f.quotient_dims()]
    descending = all(a > b for a, b in zip(slopes, slopes[1:]))
    semis = [
        _interval_maxima(lat, labels, lo, hi) == [hi]
        for lo, hi in zip(chain, chain[1:])
    ]
    return HNReport(slopes, descending, semis)
