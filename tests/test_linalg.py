import itertools
import random

import pytest

from quiverstab import (
    Matrix,
    PrimeField,
    Subspace,
    apply,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    rref,
    subspace_sum,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def random_matrix(rng, field, nrows, ncols):
    return Matrix(
        field,
        nrows,
        ncols,
        tuple(
            tuple(rng.randrange(field.p) for _ in range(ncols))
            for _ in range(nrows)
        ),
    )


def all_matrices(field, nrows, ncols):
    n = nrows * ncols
    for entries in itertools.product(range(field.p), repeat=n):
        yield Matrix(
            field,
            nrows,
            ncols,
            tuple(entries[i * ncols : (i + 1) * ncols] for i in range(nrows)),
        )


def span_vectors(s):
    """All vectors of the subspace, by brute-force linear combinations."""
    p = s.field.p
    vecs = set()
    for coeffs in itertools.product(range(p), repeat=s.dim):
        v = [0] * s.ambient
        for c, row in zip(coeffs, s.basis):
            v = [(a + c * b) % p for a, b in zip(v, row)]
        vecs.add(tuple(v))
    return vecs


def rank(m):
    """Rank as the number of non-zero rows of the RREF."""
    return sum(1 for row in rref(m).rows if any(row))


class TestPrimeField:
    def test_rejects_composites_and_out_of_range(self):
        for bad in (0, 1, 4, 6, 9, 91, 98, 101, -3):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_accepts_all_primes_up_to_97(self):
        for p in (2, 3, 5, 7, 11, 13, 89, 97):
            assert PrimeField(p).p == p

    def test_inverse(self):
        for p in (2, 3, 5, 7, 97):
            f = PrimeField(p)
            for a in range(1, p):
                assert (a * f.inv(a)) % p == 1


class TestMatrix:
    def test_matmul_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            m = random_matrix(rng, F5, 3, 4)
            assert Matrix.identity(F5, 3).matmul(m) == m
            assert m.matmul(Matrix.identity(F5, 4)) == m

    def test_matmul_associative(self):
        rng = random.Random(2)
        for _ in range(20):
            a = random_matrix(rng, F3, 2, 3)
            b = random_matrix(rng, F3, 3, 4)
            c = random_matrix(rng, F3, 4, 2)
            assert a.matmul(b).matmul(c) == a.matmul(b.matmul(c))

    def test_apply_matches_matmul(self):
        rng = random.Random(3)
        for _ in range(20):
            m = random_matrix(rng, F5, 3, 3)
            v = tuple(rng.randrange(5) for _ in range(3))
            col = Matrix(F5, 3, 1, tuple((x,) for x in v))
            assert m.apply_to(v) == tuple(r[0] for r in m.matmul(col).rows)

    def test_transpose_involution(self):
        rng = random.Random(4)
        for _ in range(20):
            m = random_matrix(rng, F2, 2, 5)
            assert m.transpose().transpose() == m

    def test_zero_dimensions(self):
        z = Matrix.zero(F2, 0, 3)
        assert z.transpose().nrows == 3
        assert Matrix.zero(F2, 3, 0).matmul(Matrix.zero(F2, 0, 2)) == Matrix.zero(
            F2, 3, 2
        )


class TestRref:
    def test_idempotent_exhaustive_f2(self):
        # every matrix up to 4x4 would be 2^16 cases per shape; cover all
        # shapes up to 3x3 exhaustively and 4x4 by sampling below
        for nrows in range(4):
            for ncols in range(4):
                for m in all_matrices(F2, nrows, ncols):
                    r = rref(m)
                    assert rref(r) == r

    def test_idempotent_exhaustive_f3_2x2(self):
        for m in all_matrices(F3, 2, 2):
            r = rref(m)
            assert rref(r) == r

    def test_idempotent_random_larger(self):
        rng = random.Random(5)
        for field in (F2, F3, F5):
            for _ in range(200):
                m = random_matrix(rng, field, 4, 4)
                r = rref(m)
                assert rref(r) == r

    def test_row_space_invariant(self):
        rng = random.Random(6)
        for _ in range(100):
            m = random_matrix(rng, F3, 3, 4)
            a = Subspace.from_spanning(F3, 4, m.rows)
            b = Subspace.from_spanning(F3, 4, rref(m).rows)
            assert a == b

    def test_invariant_under_row_operations(self):
        rng = random.Random(7)
        for _ in range(100):
            m = random_matrix(rng, F3, 3, 4)
            rows = [list(r) for r in m.rows]
            # swap, scale by a unit, add a multiple of another row
            rows[0], rows[1] = rows[1], rows[0]
            rows[2] = [(2 * x) % 3 for x in rows[2]]
            rows[1] = [(a + b) % 3 for a, b in zip(rows[1], rows[0])]
            m2 = Matrix.from_rows(F3, rows)
            assert rref(m) == rref(m2)

    def test_rank_via_known_cases(self):
        assert rank(Matrix.identity(F2, 3)) == 3
        assert rank(Matrix.zero(F5, 2, 4)) == 0
        m = Matrix.from_rows(F3, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        assert rank(m) == 2


class TestKernelImage:
    def test_rank_nullity(self):
        rng = random.Random(8)
        for _ in range(100):
            m = random_matrix(rng, F3, 3, 4)
            killed = sum(
                1
                for v in itertools.product(range(3), repeat=4)
                if not any(m.apply_to(v))
            )
            assert 3 ** (m.ncols - rank(m)) == killed
            assert apply(m, Subspace.full(F3, 4)).dim == rank(m)

    def test_image_brute_force(self):
        rng = random.Random(10)
        for _ in range(50):
            m = random_matrix(rng, F2, 3, 3)
            img = apply(m, Subspace.full(F2, 3))
            hit = {
                m.apply_to(v) for v in itertools.product(range(2), repeat=3)
            }
            assert span_vectors(img) == hit


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace.from_spanning(F3, 3, [[1, 1, 0], [0, 1, 1]])
        b = Subspace.from_spanning(F3, 3, [[1, 2, 1], [0, 2, 2]])
        assert a == b

    def test_zero_and_full(self):
        z = Subspace.zero(F2, 3)
        f = Subspace.full(F2, 3)
        assert z.dim == 0 and f.dim == 3
        assert contains(f, z)
        assert not contains(z, f)

    def test_contains_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            vs = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
            ws = [[rng.randrange(3) for _ in range(3)]]
            a = Subspace.from_spanning(F3, 3, vs)
            b = Subspace.from_spanning(F3, 3, ws)
            assert contains(a, b) == span_vectors(b).issubset(span_vectors(a))

    def test_sum_and_intersection_dims(self):
        rng = random.Random(12)
        for _ in range(100):
            a = Subspace.from_spanning(
                F3, 4, [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
            )
            b = Subspace.from_spanning(
                F3, 4, [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
            )
            s = subspace_sum(a, b)
            common = span_vectors(a) & span_vectors(b)
            assert 3 ** (a.dim + b.dim - s.dim) == len(common)
            assert contains(s, a) and contains(s, b)

    def test_apply_image(self):
        m = Matrix.from_rows(F2, [[1, 0], [1, 0]])
        s = Subspace.full(F2, 2)
        assert apply(m, s) == Subspace.from_spanning(F2, 2, [[1, 1]])


class TestEnumeration:
    def test_counts_match_gaussian_binomials(self):
        for p, field in ((2, F2), (3, F3)):
            for n in range(5):
                subs = enumerate_subspaces(n, field)
                assert len(subs) == sum(
                    gaussian_binomial(n, k, p) for k in range(n + 1)
                )
                for k in range(n + 1):
                    assert len(enumerate_subspaces(n, field, k)) == (
                        gaussian_binomial(n, k, p)
                    )

    def test_seven_lines_in_f2_cubed(self):
        assert gaussian_binomial(3, 1, 2) == 7
        assert len(enumerate_subspaces(3, F2, 1)) == 7

    def test_known_value(self):
        assert gaussian_binomial(4, 2, 3) == 130

    def test_no_duplicates_and_sorted(self):
        subs = enumerate_subspaces(3, F3)
        keys = [(s.dim, s.canonical_bytes()) for s in subs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_all_distinct_as_sets(self):
        subs = enumerate_subspaces(3, F2)
        sets = [frozenset(span_vectors(s)) for s in subs]
        assert len(set(sets)) == len(sets)
