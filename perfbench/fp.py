"""Dense matrices over F_p for the benchmark's own inputs and answers.

This is deliberately separate from ``quiverstab.linalg``: the problems
and the expected answers the benchmark checks must not be computed by
the code it measures.  Matrices are lists of rows; vectors are tuples.
"""

from __future__ import annotations


def rref(rows, ncols: int, p: int) -> list:
    """Reduced row echelon form with the zero rows dropped."""
    rows = [[x % p for x in r] for r in rows]
    out = []
    for col in range(ncols):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], -1, p)
        pivot = [(x * inv) % p for x in pivot]
        rows = [[(a - r[col] * b) % p for a, b in zip(r, pivot)] for r in rows]
        out = [[(a - r[col] * b) % p for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
    return [tuple(r) for r in out]


def apply(mat, vec, p: int) -> tuple:
    """Matrix-vector product; ``mat`` has len(vec) columns."""
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in mat)


def matmul(a, b, ncols_b: int, p: int) -> list:
    """a (r x k) times b (k x ncols_b); k may be 0."""
    cols = [[row[j] for row in b] for j in range(ncols_b)]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def random_invertible(rng, n: int, p: int) -> list:
    """Uniform element of GL(n, F_p) by rejection sampling."""
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if len(rref(g, n, p)) == n:
            return g


def inverse(g, p: int) -> list:
    """Inverse of an invertible square matrix, by row reduction of [g | I]."""
    n = len(g)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    red = rref(aug, 2 * n, p)
    if any(row[:n] != tuple(int(i == j) for j in range(n)) for i, row in enumerate(red)):
        raise ValueError("matrix is singular")
    return [list(row[n:]) for row in red]
