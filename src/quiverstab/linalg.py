"""Exact dense linear algebra over prime fields F_p.

Everything here is immutable and deterministic.  Subspaces are stored as
reduced row echelon bases without zero rows, so two subspaces are equal
as sets exactly when their basis tuples compare equal.  No floating
point is used anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p, 2 <= p <= 97."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not (2 <= self.p <= 97) or not _is_prime(self.p):
            raise ValueError(f"p must be a prime in [2, 97], got {self.p!r}")

    def inv(self, a: int) -> int:
        return pow(a % self.p, -1, self.p)


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
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @staticmethod
    def from_rows(field: PrimeField, rows, ncols=None) -> "Matrix":
        rows = tuple(tuple(x % field.p for x in r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for an empty row list")
            ncols = len(rows[0])
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def zero(field: PrimeField, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, tuple((0,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(field: PrimeField, n: int) -> "Matrix":
        return Matrix(
            field, n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        )

    def apply_to(self, vec) -> tuple:
        """Matrix-vector product, vec of length ncols."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in self.rows)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError("shape or field mismatch in matmul")
        p = self.field.p
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
            for row in self.rows
        )
        return Matrix(self.field, self.nrows, other.ncols, rows)

    def transpose(self) -> "Matrix":
        if not self.rows:
            rows = tuple(() for _ in range(self.ncols))
        else:
            rows = tuple(zip(*self.rows))
        return Matrix(self.field, self.ncols, self.nrows, rows)


def rref(m: Matrix) -> Matrix:
    """Unique reduced row echelon form; zero rows are kept at the bottom."""
    p = m.field.p
    rows = [list(r) for r in m.rows]
    pivot_row = 0
    for col in range(m.ncols):
        if pivot_row >= m.nrows:
            break
        chosen = None
        for r in range(pivot_row, m.nrows):
            if rows[r][col] % p != 0:
                chosen = r
                break
        if chosen is None:
            continue
        rows[pivot_row], rows[chosen] = rows[chosen], rows[pivot_row]
        inv = pow(rows[pivot_row][col], -1, p)
        rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for r in range(m.nrows):
            if r != pivot_row and rows[r][col] % p != 0:
                factor = rows[r][col]
                rows[r] = [
                    (a - factor * b) % p for a, b in zip(rows[r], rows[pivot_row])
                ]
        pivot_row += 1
    return Matrix(m.field, m.nrows, m.ncols, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^n given by its canonical RREF basis (no zero rows)."""

    field: PrimeField
    ambient: int
    basis: tuple  # tuple of row tuples, RREF, full row rank

    def __post_init__(self):
        for r in self.basis:
            if len(r) != self.ambient:
                raise ValueError("basis row length != ambient dimension")

    @staticmethod
    def from_spanning(field: PrimeField, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return Subspace(field, ambient, ())
        m = rref(Matrix.from_rows(field, vectors, ncols=ambient))
        rows = tuple(r for r in m.rows if any(r))
        return Subspace(field, ambient, rows)

    @staticmethod
    def zero(field: PrimeField, ambient: int) -> "Subspace":
        return Subspace(field, ambient, ())

    @staticmethod
    def full(field: PrimeField, ambient: int) -> "Subspace":
        return Subspace(field, ambient, Matrix.identity(field, ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple:
        out = []
        for row in self.basis:
            out.append(next(j for j, x in enumerate(row) if x))
        return tuple(out)

    def reduce(self, vec) -> tuple:
        """Residual of vec after reduction against the RREF basis."""
        p = self.field.p
        v = [x % p for x in vec]
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return tuple(v)

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce(vec))

    def canonical_bytes(self) -> tuple:
        """Flattened basis entries; the canonical sort/equality key."""
        return tuple(x for row in self.basis for x in row)


def _check_compatible(a: Subspace, b: Subspace):
    if a.field != b.field or a.ambient != b.ambient:
        raise ValueError("subspaces live in different ambient spaces")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return Subspace.from_spanning(a.field, a.ambient, list(a.basis) + list(b.basis))


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is contained in a."""
    _check_compatible(a, b)
    return all(a.contains_vector(row) for row in b.basis)


def apply(m: Matrix, s: Subspace) -> Subspace:
    """Image of the subspace s under the linear map m."""
    if m.ncols != s.ambient or m.field != s.field:
        raise ValueError("matrix/subspace shape or field mismatch")
    return Subspace.from_spanning(m.field, m.nrows, [m.apply_to(v) for v in s.basis])


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


def subspace_count(n: int, p: int) -> int:
    """Number of subspaces of F_p^n of every dimension, exact."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def _subspaces_of_dim(n: int, field: PrimeField, k: int):
    """All dimension-k subspaces, generated via RREF pivot patterns."""
    p = field.p
    out = []
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        # free cells: (row i, col j) with j > pivots[i] and j not a pivot
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        for values in itertools.product(range(p), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for i, piv in enumerate(pivots):
                rows[i][piv] = 1
            for (i, j), val in zip(free_cells, values):
                rows[i][j] = val
            out.append(Subspace(field, n, tuple(tuple(r) for r in rows)))
    out.sort(key=Subspace.canonical_bytes)
    return out


def enumerate_subspaces(n: int, field: PrimeField, k=None):
    """All subspaces of F_p^n of dimension k (all dimensions if k is None).

    Canonical order: by dimension, then lexicographic on the flattened
    RREF basis entries.  Each subspace appears exactly once.
    """
    if k is not None:
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        return list(_subspaces_of_dim(n, field, k))
    out = []
    for d in range(n + 1):
        out.extend(_subspaces_of_dim(n, field, d))
    return out
