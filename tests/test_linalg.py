import copy
import itertools
import json
import random
from pathlib import Path

import pytest

from quiverstab import (
    Matrix,
    PrimeField,
    Subspace,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    linalg,
)

from quiverstab.cli import parse_problem

from ladder import rungs
from oracles import (
    apply,
    full_subspace,
    identity_matrix,
    matmul,
    reduce,
    rref,
    span,
    subspace_count,
    subspace_sum,
    zero_matrix,
    zero_subspace,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


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


class TestMatrix:
    def test_matmul_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            m = random_matrix(rng, F5, 3, 4)
            assert matmul(identity_matrix(F5, 3), m) == m
            assert matmul(m, identity_matrix(F5, 4)) == m

    def test_matmul_associative(self):
        rng = random.Random(2)
        for _ in range(20):
            a = random_matrix(rng, F3, 2, 3)
            b = random_matrix(rng, F3, 3, 4)
            c = random_matrix(rng, F3, 4, 2)
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))

    def test_apply_matches_matmul(self):
        rng = random.Random(3)
        for _ in range(20):
            m = random_matrix(rng, F5, 3, 3)
            v = tuple(rng.randrange(5) for _ in range(3))
            col = Matrix(F5, 3, 1, tuple((x,) for x in v))
            assert m.apply_to(v) == tuple(r[0] for r in matmul(m, col).rows)

    @pytest.mark.parametrize("entry", [1.5, True, False, "1", None])
    def test_from_rows_refuses_entries_that_are_not_integers(self, entry):
        """from_rows reduces only ints, where True % 3 would be the int 1
        and 1.5 % 3 the float 1.5, and leaves the rest to Matrix to refuse."""
        with pytest.raises(ValueError, match="entries must be integers"):
            Matrix.from_rows(F3, [[0, entry]])

    @pytest.mark.parametrize("entry", [1.5, True, False, "1", None])
    def test_refuses_entries_that_are_not_integers(self, entry):
        with pytest.raises(ValueError, match="entries must be integers"):
            Matrix(F3, 1, 2, ((0, entry),))

    @pytest.mark.parametrize("entry", [3, 5, -1])
    def test_refuses_entries_outside_the_field(self, entry):
        """A matrix built directly is not reduced: an entry must already
        lie in 0..p-1, as from_rows leaves it."""
        with pytest.raises(ValueError, match=r"entries must lie in 0\.\.2"):
            Matrix(F3, 1, 2, ((0, entry),))

    def test_from_rows_reduces_integers_mod_p(self):
        assert Matrix.from_rows(F3, [[4, -1], [3, 2]]).rows == ((1, 2), (0, 2))

    def test_zero_dimensions(self):
        assert zero_matrix(F2, 0, 3).nrows == 0
        assert matmul(zero_matrix(F2, 3, 0), zero_matrix(F2, 0, 2)) == zero_matrix(
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
            a = span(F3, 4, m.rows)
            b = span(F3, 4, rref(m).rows)
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
        assert rank(identity_matrix(F2, 3)) == 3
        assert rank(zero_matrix(F5, 2, 4)) == 0
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
            assert apply(m, full_subspace(F3, 4)).dim == rank(m)

    def test_image_brute_force(self):
        rng = random.Random(10)
        for _ in range(50):
            m = random_matrix(rng, F2, 3, 3)
            img = apply(m, full_subspace(F2, 3))
            hit = {
                m.apply_to(v) for v in itertools.product(range(2), repeat=3)
            }
            assert span_vectors(img) == hit


class TestSubspace:
    def test_canonical_equality(self):
        a = span(F3, 3, [[1, 1, 0], [0, 1, 1]])
        b = span(F3, 3, [[1, 2, 1], [0, 2, 2]])
        assert a == b

    @pytest.mark.parametrize("basis", [
        ((1, 2, 0), (0, 1, 1)),  # pivot column 1 is not a unit column
        ((2, 0),),               # pivot entry 2, not 1
        ((0, 0),),               # zero row
        ((0, 1), (1, 0)),        # pivots decrease
        ((1, 3),),               # entry outside 0..p-1
    ], ids=["echelon-not-reduced", "non-monic-pivot", "zero-row",
            "pivots-decrease", "entry-out-of-range"])
    def test_rejects_basis_not_in_rref(self, basis):
        with pytest.raises(ValueError):
            Subspace(F3, len(basis[0]), basis)

    def test_zero_and_full(self):
        z = zero_subspace(F2, 3)
        f = full_subspace(F2, 3)
        assert z.dim == 0 and f.dim == 3
        assert contains(f, z)
        assert not contains(z, f)

    def test_contains_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            vs = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
            ws = [[rng.randrange(3) for _ in range(3)]]
            a = span(F3, 3, vs)
            b = span(F3, 3, ws)
            assert contains(a, b) == span_vectors(b).issubset(span_vectors(a))

    def test_sum_and_intersection_dims(self):
        rng = random.Random(12)
        for _ in range(100):
            a = span(F3, 4, [[rng.randrange(3) for _ in range(4)] for _ in range(2)])
            b = span(F3, 4, [[rng.randrange(3) for _ in range(4)] for _ in range(2)])
            s = subspace_sum(a, b)
            common = span_vectors(a) & span_vectors(b)
            assert 3 ** (a.dim + b.dim - s.dim) == len(common)
            assert contains(s, a) and contains(s, b)

    @pytest.mark.parametrize("field", [F2, F3, F5, F7], ids=lambda f: f"F{f.p}")
    def test_membership_and_points_against_brute_force(self, field):
        """Every subspace of F_p^n, n <= 3, against every vector: the
        column check agrees with reduction and with the brute-force span,
        and points() lists each normalized member exactly once."""
        p = field.p
        for n in range(4):
            vectors = list(itertools.product(range(p), repeat=n))
            for s in enumerate_subspaces(n, field):
                assert s.pivots == Subspace(field, n, s.basis).pivots
                members = span_vectors(s)
                for v in vectors:
                    assert s.contains_vector(v) == (not any(reduce(s, v)))
                    assert s.contains_vector(v) == (v in members)
                normalized = {
                    v for v in members if any(v) and next(x for x in v if x) == 1
                }
                listed = s.points()
                assert len(listed) == len(set(listed)) == (p**s.dim - 1) // (p - 1)
                assert set(listed) == normalized

    def test_apply_image(self):
        m = Matrix.from_rows(F2, [[1, 0], [1, 0]])
        s = full_subspace(F2, 2)
        assert apply(m, s) == span(F2, 2, [[1, 1]])


class TestEnumeration:
    def test_counts_match_gaussian_binomials(self):
        for p, field in ((2, F2), (3, F3)):
            for n in range(5):
                subs = enumerate_subspaces(n, field)
                assert len(subs) == sum(
                    gaussian_binomial(n, k, p) for k in range(n + 1)
                )
                for k in range(n + 1):
                    assert sum(s.dim == k for s in subs) == gaussian_binomial(n, k, p)

    def test_seven_lines_in_f2_cubed(self):
        assert gaussian_binomial(3, 1, 2) == 7
        assert sum(s.dim == 1 for s in enumerate_subspaces(3, F2)) == 7

    def test_known_value(self):
        assert gaussian_binomial(4, 2, 3) == 130

    def test_subspace_count_is_the_binomial_sum(self):
        for p in (2, 3, 5, 7, 97):
            for n in range(13):
                assert subspace_count(n, p) == sum(
                    gaussian_binomial(n, k, p) for k in range(n + 1)
                )

    def test_no_duplicates_and_sorted(self):
        subs = enumerate_subspaces(3, F3)
        keys = [(s.dim, tuple(itertools.chain(*s.basis))) for s in subs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_all_distinct_as_sets(self):
        subs = enumerate_subspaces(3, F2)
        sets = [frozenset(span_vectors(s)) for s in subs]
        assert len(set(sets)) == len(sets)


def invariant_by_filter(n, field, maps, k=None):
    """The subspaces that every map sends into themselves, filtered from
    the whole list by computing each image."""
    return [
        s for s in enumerate_subspaces(n, field)
        if (k is None or s.dim == k) and all(contains(s, apply(m, s)) for m in maps)
    ]


def shift(field, n):
    """The nilpotent shift e_{i+1} -> e_i."""
    return Matrix.from_rows(
        field, [[int(j == i + 1) for j in range(n)] for i in range(n)], ncols=n
    )


def scalar(field, n):
    """2·I, a scalar map other than 0 and I."""
    return Matrix.from_rows(
        field, [[2 * int(i == j) for j in range(n)] for i in range(n)], ncols=n
    )


PROBLEM_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "problems"


def vertex_cases() -> list:
    """(n, field, loops) of each distinct loop set of every ladder rung and
    of each vertex of every committed problem, loops or none, and with no
    loop on each of their (n, p)."""
    cases = [
        (n, field, maps)
        for n, field, loop_sets in rungs().values() for maps in loop_sets
    ]
    for path in sorted(PROBLEM_DIR.glob("*/[0-9]*.json")):
        m, _params = parse_problem(json.loads(path.read_text()))
        for v in m.quiver.vertices:
            loops = tuple(
                mat for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps)
                if src == tgt == v
            )
            cases.append((m.dims[v], m.field, loops))
    cases += [(n, field, ()) for n, field, _maps in cases]
    return list(dict.fromkeys(cases))


def with_patterns(subspaces) -> list:
    return [(s.basis, s.pivots, s._columns) for s in subspaces]


def table_entries(table) -> dict:
    """Each key of a pattern table with the attributes of its patterns."""
    return {key: [vars(pattern) for pattern in patterns] for key, patterns in table.items()}


def random_square(rng, field, n, density):
    return Matrix.from_rows(field, [
        [rng.randrange(1, field.p) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ], ncols=n)


class TestInvariantEnumeration:
    """enumerate_subspaces(n, F, maps=ms) tests the maps while it walks
    the RREF patterns; it must equal the whole list filtered afterwards,
    in the same order."""

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=lambda f: f"F{f.p}")
    def test_special_maps(self, field):
        for n in range(4):
            for maps in (
                (zero_matrix(field, n, n),),
                (identity_matrix(field, n),),
                (scalar(field, n),),
                (shift(field, n),),
            ):
                got = enumerate_subspaces(n, field, maps=maps)
                assert got == invariant_by_filter(n, field, maps)
        # the zero, identity and scalar maps keep every subspace
        every = enumerate_subspaces(3, field)
        assert enumerate_subspaces(3, field, maps=(zero_matrix(field, 3, 3),)) == every
        assert enumerate_subspaces(3, field, maps=(identity_matrix(field, 3),)) == every
        # the shift keeps exactly its flag 0 < <e_0> < <e_0, e_1> < F^3
        flag = enumerate_subspaces(3, field, maps=(shift(field, 3),))
        assert [s.basis for s in flag] == [
            (), ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)), identity_matrix(field, 3).rows
        ]

    @pytest.mark.parametrize("field, rows", [
        (F2, [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),  # x^3 + x + 1
        (F3, [[0, 2], [1, 0]]),                   # x^2 + 1
        (F3, [[0, 0, 2], [1, 0, 1], [0, 1, 0]]),  # x^3 + 2x + 1
        (F5, [[0, 3], [1, 0]]),                   # x^2 + 2
    ])
    def test_irreducible_companion_keeps_only_zero_and_whole(self, field, rows):
        n = len(rows)
        c = Matrix.from_rows(field, rows)
        got = enumerate_subspaces(n, field, maps=(c,))
        assert got == invariant_by_filter(n, field, (c,))
        assert [s.dim for s in got] == [0, n]

    def test_two_loops_at_once(self):
        for field in (F2, F3):
            diagonal = Matrix.from_rows(field, [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
            for maps in (
                (shift(field, 3), diagonal),
                (diagonal, shift(field, 3)),
                (identity_matrix(field, 3), shift(field, 3)),
            ):
                got = enumerate_subspaces(3, field, maps=maps)
                assert got == invariant_by_filter(3, field, maps)
            # the shift's flag is invariant under the diagonal too; the
            # transposed shift keeps the opposite flag, so with it only 0 and F^3
            both = enumerate_subspaces(3, field, maps=(shift(field, 3), diagonal))
            assert [s.dim for s in both] == [0, 1, 2, 3]
            lower = Matrix.from_rows(field, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
            maps = (shift(field, 3), lower)
            got = enumerate_subspaces(3, field, maps=maps)
            assert got == invariant_by_filter(3, field, maps)
            assert [s.dim for s in got] == [0, 3]

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=lambda f: f"F{f.p}")
    def test_random_maps(self, field):
        rng = random.Random(field.p)
        for n in range(5):
            for density in (0.2, 0.5, 1.0):
                for count in (1, 2):
                    maps = tuple(
                        random_square(rng, field, n, density) for _ in range(count)
                    )
                    got = enumerate_subspaces(n, field, maps=maps)
                    assert got == invariant_by_filter(n, field, maps)
        maps = (random_square(rng, field, 4, 0.3),)
        for k in range(5):
            got = [s for s in enumerate_subspaces(4, field, maps) if s.dim == k]
            assert got == invariant_by_filter(4, field, maps, k)

    @pytest.mark.parametrize("field, n", [(F3, 5), (F5, 4)], ids=["F3^5", "F5^4"])
    def test_benchmark_shapes(self, field, n):
        """The looped vertex shapes of the benchmark, where row 0 prunes
        most choices: each kept subspace also carries the pivots and
        columns that its basis gives."""
        rng = random.Random(field.p * n)
        cases = [
            tuple(random_square(rng, field, n, density) for _ in range(count))
            for density in (0.2, 0.5, 1.0) for count in (1, 2)
        ]
        cases += [(shift(field, n),), (zero_matrix(field, n, n),),
                  (identity_matrix(field, n),), (scalar(field, n),)]
        for maps in cases:
            got = enumerate_subspaces(n, field, maps=maps)
            assert got == invariant_by_filter(n, field, maps)
            for s in got:
                fresh = Subspace(field, n, s.basis)
                assert (s.pivots, s._columns) == (fresh.pivots, fresh._columns)

    def test_row0_first_prunes_membership_tests(self, monkeypatch):
        """On the shift of F3^5, row 0 rejects most choices before they
        are generated, and lines and zero images take no membership test:
        478 of them, where testing every choice takes 3,087."""
        calls = [0]
        in_span = linalg._in_span

        def counted(*args):
            calls[0] += 1
            return in_span(*args)

        monkeypatch.setattr(linalg, "_in_span", counted)
        assert len(enumerate_subspaces(5, F3, maps=(shift(F3, 5),))) == 6
        assert calls[0] <= 500

    def test_a_warm_table_changes_no_list(self, empty_patterns):
        """Every ladder rung, every vertex of every committed problem and
        loop-free vertices of the same (n, p) give the same subspaces, with
        the same pivots and columns, on an empty pattern table and on one
        that other (n, p), other maps and no maps have filled."""
        cases = vertex_cases()
        cold = []
        for n, field, maps in cases:
            empty_patterns.clear()
            cold.append(with_patterns(enumerate_subspaces(n, field, maps)))
        empty_patterns.clear()
        order = list(range(len(cases)))
        random.Random(25).shuffle(order)
        for _pass in range(2):  # the first pass fills the table as it goes
            for i in order:
                n, field, maps = cases[i]
                assert with_patterns(enumerate_subspaces(n, field, maps)) == cold[i]

    def test_the_table_holds_nothing_of_the_maps(self, empty_patterns):
        """Two looped calls on one (n, p) with different maps leave the
        same keys and equal entries, and a call on the table that other
        maps filled changes no entry."""
        rng = random.Random(25)
        for field, n in ((F2, 4), (F3, 5), (F5, 4)):
            first = (random_square(rng, field, n, 0.5),)
            second = (shift(field, n), zero_matrix(field, n, n))
            tables = []
            for maps in (first, second):
                empty_patterns.clear()
                enumerate_subspaces(n, field, maps)
                tables.append(copy.deepcopy(table_entries(empty_patterns)))
            assert tables[0] == tables[1]
            assert set(tables[0]) == {(n, k, field.p) for k in range(n + 1)}
            enumerate_subspaces(n, field, first)
            assert table_entries(empty_patterns) == tables[0]

    def test_loop_free_calls_fill_the_same_table(self, empty_patterns):
        """A loop-free call on (n, p) leaves the same keys and equal
        entries as a looped call on it: one pattern path, with or
        without maps."""
        rng = random.Random(26)
        for field, n in ((F2, 4), (F3, 5), (F5, 4), (F7, 3)):
            tables = []
            for maps in ((), (random_square(rng, field, n, 0.5),), ()):
                empty_patterns.clear()
                enumerate_subspaces(n, field, maps)
                tables.append(copy.deepcopy(table_entries(empty_patterns)))
            assert tables[0] == tables[1] == tables[2]
            assert set(tables[0]) == {(n, k, field.p) for k in range(n + 1)}
        assert len(enumerate_subspaces(3, F7)) == 2 + 2 * (7**2 + 7 + 1)

    def test_kept_subspaces_test_membership(self):
        """Each kept subspace carries its pattern's pivots and columns."""
        maps = (shift(F3, 4),)
        for s in enumerate_subspaces(4, F3, maps=maps):
            fresh = Subspace(F3, 4, s.basis)
            for v in itertools.product(range(3), repeat=4):
                assert s.contains_vector(v) == fresh.contains_vector(v)

    def test_maps_must_be_square_over_the_field(self):
        with pytest.raises(ValueError, match="3x3 matrix over F_2"):
            enumerate_subspaces(3, F2, maps=(zero_matrix(F2, 3, 2),))
        with pytest.raises(ValueError, match="3x3 matrix over F_2"):
            enumerate_subspaces(3, F2, maps=(zero_matrix(F3, 3, 3),))
