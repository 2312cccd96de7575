"""Exact dense linear algebra over prime fields F_p.

Everything here is immutable and deterministic.  Subspaces are stored as
reduced row echelon bases without zero rows, so two subspaces are equal
as sets exactly when their basis tuples compare equal.  No floating
point is used anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter, mul


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p, 2 <= p <= 97."""

    p: int

    def __post_init__(self):
        p = self.p
        if not (isinstance(p, int) and 1 < p < 98 and all(p % d for d in range(2, p))):
            raise ValueError(f"p must be a prime in [2, 97], got {self.p!r}")


@dataclass(frozen=True)
class Matrix:
    """Dense matrix over F_p, stored as a tuple of row tuples mod p."""

    field: PrimeField
    nrows: int
    ncols: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")
        p = self.field.p
        if any(type(x) is not int for r in self.rows for x in r):  # a bool too
            raise ValueError("entries must be integers")
        if any(not 0 <= x < p for r in self.rows for x in r):
            raise ValueError(f"entries must lie in 0..{p - 1}")

    @staticmethod
    def from_rows(field: PrimeField, rows, ncols=None) -> "Matrix":
        """Reduces each int entry mod p; __post_init__ refuses the rest."""
        rows = tuple(tuple(x % field.p if type(x) is int else x for x in r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for an empty row list")
            ncols = len(rows[0])
        return Matrix(field, len(rows), ncols, rows)

    def apply_to(self, vec) -> tuple:
        """Matrix-vector product, vec of length ncols."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        return tuple(sum(map(mul, row, vec)) % p for row in self.rows)


def _in_span(vec, pivots: tuple, columns: tuple, p: int) -> bool:
    """True iff vec lies in the span of the RREF rows with these pivots
    and these (j, column j) non-pivot columns.

    The only member with the pivot coordinates of vec is the combination
    of the rows whose coefficients are those coordinates, so vec is a
    member iff each non-pivot coordinate equals that combination's: one
    dot product per non-pivot column.
    """
    coefs = [vec[j] for j in pivots]
    for j, column in columns:
        if (vec[j] - sum(map(mul, column, coefs))) % p:
            return False
    return True


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^n given by its canonical RREF basis (no zero rows).

    ``pivots`` holds the pivot column of each basis row.
    """

    field: PrimeField
    ambient: int
    basis: tuple  # tuple of row tuples, RREF, full row rank

    def __post_init__(self):
        if any(len(r) != self.ambient for r in self.basis):
            raise ValueError("basis row length != ambient dimension")
        p = self.field.p
        if any(not 0 <= x < p for r in self.basis for x in r):
            raise ValueError(f"basis entries must lie in 0..{p - 1}")
        # a zero row gets pivot -1, which the increasing test rejects
        pivots = tuple(next((j for j, x in enumerate(r) if x), -1) for r in self.basis)
        columns = tuple(zip(*self.basis)) if self.basis else ((),) * self.ambient
        if not all(a < b for a, b in zip((-1,) + pivots, pivots)) or any(
            columns[q] != tuple(int(r == i) for r in range(len(pivots)))
            for i, q in enumerate(pivots)
        ):
            raise ValueError("basis is not in RREF without zero rows")
        # the frozen dataclass allows setting attributes through object
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_columns", tuple(
            (j, c) for j, c in enumerate(columns) if j not in pivots
        ))

    @classmethod
    def _from_pattern(
        cls, field: PrimeField, ambient: int, basis: tuple, pivots: tuple, columns: tuple
    ) -> "Subspace":
        """A subspace built from its RREF pattern, which gives its basis,
        its pivots and (j, column j) for every non-pivot column j."""
        s = object.__new__(cls)
        s.__dict__.update(
            field=field, ambient=ambient, basis=basis, pivots=pivots, _columns=columns
        )
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, vec) -> bool:
        """True iff vec lies in the subspace."""
        return _in_span(vec, self.pivots, self._columns, self.field.p)

    def points(self) -> list:
        """Every non-zero member whose first non-zero entry is 1, once each.

        In a combination of the RREF basis rows, the first non-zero entry
        sits at the pivot of the first row with a non-zero coefficient
        and equals that coefficient.  So the members listed are the
        combinations of one row, with coefficient 1, and any of the rows
        after it: (p^dim - 1) / (p - 1) of them.  Each later row extends
        the layer by v + c row, c = 1, ..., p - 1, a coordinate at a time.
        """
        p = self.field.p
        out = []
        for i, row in enumerate(self.basis):
            layer = [row]
            for after in self.basis[i + 1:]:
                layer += zip(*[[(a + c * b) % p for c in range(1, p) for a in col]
                               for col, b in zip(zip(*layer), after)])
            out.extend(layer)
        return out


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is contained in a."""
    if a.field != b.field or a.ambient != b.ambient:
        raise ValueError("subspaces live in different ambient spaces")
    return all(a.contains_vector(row) for row in b.basis)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n, exact."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num, den = 1, 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


class _Images(dict):
    """m·row for each row looked up, once per distinct row, scaled so that
    its first non-zero entry is 1 (None for 0): a subspace contains a
    vector iff it contains it scaled, so loops and arrows read these alike."""

    def __init__(self, m: Matrix):
        self.rows, self.p = m.rows, m.field.p

    def __missing__(self, row):
        p = self.p
        im = [sum(map(mul, r, row)) % p for r in self.rows]
        lead = next(filter(None, im), 0)
        if lead > 1:
            inv = pow(lead, -1, p)
            im = [x * inv % p for x in im]
        self[row] = image = tuple(im) if lead else None
        return image


class _Pattern:
    """An RREF pivot pattern of k-dimensional subspaces of F_p^n: pivots,
    unit columns and the (j, column) choices of each non-pivot column j,
    free in the rows whose pivot lies left of j; later = 1 iff a column is
    free below row 0, and then the row-0 options and blocks of _row0_first;
    for k = 1 each (point, choice)."""

    def __init__(self, n: int, k: int, p: int, pivots: tuple):
        self.pivots = pivots
        # elsewhere (k = 1 too) fixing row 0 first costs more than it saves
        self.later = later = int(k > 1 and n - pivots[1] > k - 1)
        self.units = [None] * n
        for i, q in enumerate(pivots):
            self.units[q] = (0,) * i + (1,) + (0,) * (k - 1 - i)
        self.choices, self.blocks = [], []
        self.options = later and [(int(j == pivots[0]),) for j in range(n)]
        for j in range(n):
            if j not in pivots:
                free = j - len(self.choices)  # the pivots left of j
                zeros = (0,) * (k - free)
                col = [(j, head + zeros) for head in itertools.product(range(p), repeat=free)]
                self.choices.append(col)
                if later:
                    size = len(col) // p or 1
                    self.blocks.append((j, [col[e:e + size] for e in range(0, len(col), size)]))
                    self.options[j] = range(len(self.blocks[-1][1]))
        if k == 1:  # the point: 0 left of the pivot, 1 at it, the choice after
            tails = itertools.product(range(p), repeat=n - pivots[0] - 1)
            self.lines = [((0,) * pivots[0] + (1,) + tail, choice) for tail, choice
                          in zip(tails, itertools.product(*self.choices))]


# (n, k, p) -> _Patterns, which depend on no map: one table for every vertex
_PATTERNS = {}


def _row0_first(pattern: _Pattern, images: list, p: int):
    """The choices for which every map sends basis row 0 into the span: with
    row 0 fixed, its image im (unless None) meets _in_span's rule iff each
    column j meets im[j] == sum_i im[pivot_i] * column[i] (mod p).  Each
    column's choices come in blocks, one per row-0 entry."""
    pivots, blocks = pattern.pivots, pattern.blocks
    for row0 in itertools.product(*pattern.options):
        kept = [b[row0[j]] for j, b in blocks]
        for im in filter(None, [image[row0] for image in images]):
            coefs = [im[q] for q in pivots]
            kept = [
                [(j, c) for j, c in col if (im[j] - sum(map(mul, c, coefs))) % p == 0]
                for col in kept
            ]
            if not all(kept):  # some column has no choice left: drop this row 0
                break
        yield from itertools.product(*kept)


def _subspaces_of_dim(n: int, field: PrimeField, k: int, images: list):
    """The dimension-k subspaces that every map of images sends into
    themselves: each is one choice of an RREF pattern's non-pivot columns,
    kept iff each basis row's normalized image is None or passes the
    membership rule of those columns, row 0 first where a column is free
    below it.  For k = 1 a choice is a point x, kept iff each map sends x
    to x or None.  They are sorted by basis: every row has length n, so
    the order of the row tuples is that of the flattened entries."""
    p = field.p
    key = n, k, p
    if key not in _PATTERNS:
        _PATTERNS[key] = [_Pattern(n, k, p, q) for q in itertools.combinations(range(n), k)]
    out = []
    for pat in _PATTERNS[key]:
        pivots = pat.pivots
        if k == 1:
            out += [
                Subspace._from_pattern(field, n, (x,), pivots, choice)
                for x, choice in pat.lines
                if all(image[x] in (None, x) for image in images)
            ]
            continue
        later, columns = pat.later, list(pat.units)
        walk = _row0_first(pat, images, p) if later else itertools.product(*pat.choices)
        for free_columns in walk:
            for j, c in free_columns:
                columns[j] = c
            basis = tuple(zip(*columns))
            if not images or all(
                _in_span(im, pivots, free_columns, p)
                for image in images for row in basis[later:] if (im := image[row])
            ):
                out.append(Subspace._from_pattern(field, n, basis, pivots, free_columns))
    out.sort(key=attrgetter("basis"))
    return out


def enumerate_subspaces(n: int, field: PrimeField, maps=()):
    """All subspaces of F_p^n that every n x n matrix in maps sends into
    themselves.

    Canonical order: by dimension, then lexicographic on the flattened
    RREF basis entries.  Each subspace appears exactly once.  The maps
    are tested on the basis rows of RREF patterns built once per process
    and (n, k, p) (_PATTERNS), each distinct row mapped and normalized
    once per map (_Images), and only the subspaces kept are built."""
    for m in maps:
        if m.field != field or m.nrows != n or m.ncols != n:
            raise ValueError(f"each map must be a {n}x{n} matrix over F_{field.p}")
    images = [_Images(m) for m in maps]
    out = []
    for d in range(n + 1):
        out.extend(_subspaces_of_dim(n, field, d, images))
    return out
