"""Exact dense linear algebra over prime fields F_p.

Everything here is immutable and deterministic.  Subspaces are stored as
reduced row echelon bases without zero rows, so two subspaces are equal
as sets exactly when their basis tuples compare equal.  No floating
point is used anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul


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

    @staticmethod
    def from_rows(field: PrimeField, rows, ncols=None) -> "Matrix":
        rows = tuple(tuple(x % field.p for x in r) for r in rows)
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
        after it: (p^dim - 1) / (p - 1) of them, built a row at a time:
        each later row extends the layer by v + c row, c = 1, ..., p - 1.
        """
        p = self.field.p
        out = []
        for i, row in enumerate(self.basis):
            layer = [row]
            for after in self.basis[i + 1:]:
                layer += [
                    tuple((a + c * b) % p for a, b in zip(v, after))
                    for c in range(1, p) for v in layer
                ]
            out.extend(layer)
        return out

    def canonical_bytes(self) -> tuple:
        """Flattened basis entries; the canonical sort/equality key."""
        return tuple(itertools.chain.from_iterable(self.basis))


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
    """m·row for each row looked up, computed once per distinct row."""

    def __init__(self, m: Matrix):
        super().__init__()
        self.m = m

    def __missing__(self, row):
        image = self[row] = self.m.apply_to(row)
        return image


def _row0_first(n: int, pivots: tuple, choices: list, images: list, p: int):
    """The choices of the non-pivot columns for which every map sends
    basis row 0 into the span: with row 0 fixed, its image im meets
    _in_span's rule iff each column j meets im[j] == sum_i im[pivot_i] *
    column[i] (mod p).  A column's choices come in blocks, one per row-0 entry."""
    options = [(int(j == pivots[0]),) for j in range(n)]  # for each entry of row 0
    blocks = {}
    for col in choices:
        j, size = col[0][0], len(col) // p or 1
        blocks[j] = [col[e:e + size] for e in range(0, len(col), size)]
        options[j] = range(len(blocks[j]))
    for row0 in itertools.product(*options):
        kept = [b[row0[j]] for j, b in blocks.items()]
        for image in images:
            im = image[row0]
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
    themselves, generated via RREF pivot patterns.

    A pattern fixes the pivot columns, which are unit columns.  Column j
    off the pattern is free in the rows whose pivot lies left of j and 0
    below them, so each subspace of the pattern is one choice of its
    non-pivot columns.  A choice is kept iff the image of each of its
    basis rows passes the membership rule of those columns; only kept
    choices are built.  If a non-pivot column lies right of pivot 1, it
    is free below row 0, and _row0_first skips the choices failing on row 0.
    """
    p = field.p
    out = []
    for pivots in itertools.combinations(range(n), k):
        columns = [None] * n
        for i, q in enumerate(pivots):
            columns[q] = tuple(int(r == i) for r in range(k))
        choices = []
        for j in range(n):
            if j not in pivots:
                free = sum(q < j for q in pivots)
                zeros = (0,) * (k - free)
                choices.append([
                    (j, head + zeros)
                    for head in itertools.product(range(p), repeat=free)
                ])
        # elsewhere (k = 1 too) fixing row 0 first costs more than it saves
        later = int(bool(images) and k > 1 and n - pivots[1] > k - 1)
        walk = _row0_first(n, pivots, choices, images, p) if later else None
        for free_columns in walk or itertools.product(*choices):
            for j, c in free_columns:
                columns[j] = c
            basis = tuple(zip(*columns))
            if not images or all(
                _in_span(image[row], pivots, free_columns, p)
                for image in images for row in basis[later:]
            ):
                out.append(Subspace._from_pattern(field, n, basis, pivots, free_columns))
    out.sort(key=Subspace.canonical_bytes)
    return out


def enumerate_subspaces(n: int, field: PrimeField, maps=()):
    """All subspaces of F_p^n that every n x n matrix in maps sends into
    themselves.

    Canonical order: by dimension, then lexicographic on the flattened
    RREF basis entries.  Each subspace appears exactly once.  The maps
    are tested on each RREF pattern's basis rows, row 0 before the later
    rows are generated where a column is free below row 0, each distinct
    row mapped once per map, and only the subspaces kept are built.
    """
    for m in maps:
        if m.field != field or m.nrows != n or m.ncols != n:
            raise ValueError(f"each map must be a {n}x{n} matrix over F_{field.p}")
    images = [_Images(m) for m in maps]
    out = []
    for d in range(n + 1):
        out.extend(_subspaces_of_dim(n, field, d, images))
    return out
