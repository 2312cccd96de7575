import itertools
import random
from fractions import Fraction

import pytest

from quiverstab import (
    EnumerationBudgetError,
    Filtration,
    InvalidSubrepresentationError,
    Matrix,
    PrimeField,
    Quiver,
    Representation,
    StabilityParams,
    Subrepresentation,
    Subspace,
    TheoremContradictionError,
    ZeroRepresentationError,
    apply,
    check_hn_properties,
    enumerate_subreps,
    gaussian_binomial,
    hn_filtration,
    is_semistable,
    max_destabilizing,
    preimage_spaces,
    quotient,
    reparam_theta,
    restrict,
    seesaw_check,
    sigma_of,
    slope,
    sub_contains,
    theta_of,
)

from conftest import (
    A3,
    F2,
    F3,
    all_kronecker_reps,
    kronecker_rep,
    params_for,
    random_rep,
)


class TestQuiverAndParams:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            Quiver(("a", "a"), ())

    def test_dangling_arrow_rejected(self):
        with pytest.raises(ValueError):
            Quiver(("a",), (("a", "b"),))

    def test_loops_and_parallel_arrows_allowed(self):
        Quiver(("a",), (("a", "a"), ("a", "a")))

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            StabilityParams({"a": 1}, {"a": 0})
        with pytest.raises(ValueError):
            StabilityParams({"a": 1}, {"a": -1})

    def test_slope_values(self):
        q = Quiver.kronecker(1)
        params = params_for(q, (1, 0))
        assert slope({"v0": 1, "v1": 1}, params) == Fraction(1, 2)
        assert theta_of({"v0": 2, "v1": 3}, params) == 2
        assert sigma_of({"v0": 2, "v1": 3}, params) == 5

    def test_slope_of_zero_raises(self):
        q = Quiver.kronecker(1)
        with pytest.raises(ZeroRepresentationError):
            slope({"v0": 0, "v1": 0}, params_for(q, (1, 0)))


class TestRepresentation:
    def test_shape_validation(self):
        q = Quiver.kronecker(1)
        with pytest.raises(ValueError):
            Representation(q, F2, {"v0": 2, "v1": 1}, (Matrix.zero(F2, 2, 2),))

    def test_restrict_of_full_is_isomorphic_to_parent(self):
        rng = random.Random(20)
        for _ in range(20):
            m = random_rep(rng, A3, F3, (2, 2, 2))
            full = Subrepresentation(m, m.full_spaces())
            r = restrict(m, full)
            assert r.dims == m.dims
            assert r.arrow_maps == m.arrow_maps

    def test_closure_enforced(self):
        m = kronecker_rep(F2, (1, 1), [[1]])
        spaces = {
            "v0": Subspace.full(F2, 1),
            "v1": Subspace.zero(F2, 1),
        }
        with pytest.raises(InvalidSubrepresentationError):
            Subrepresentation(m, spaces)


class TestEnumerateSubreps:
    def test_zero_maps_give_all_subspace_tuples(self):
        m = kronecker_rep(F2, (2, 1), [[0, 0]])
        count_v0 = sum(gaussian_binomial(2, k, 2) for k in range(3))
        count_v1 = sum(gaussian_binomial(1, k, 2) for k in range(2))
        assert len(enumerate_subreps(m)) == count_v0 * count_v1

    def test_identity_map_restricts(self):
        m = kronecker_rep(F2, (1, 1), [[1]])
        # v0 full forces v1 full: subreps are (0,0), (0,1), (1,1)
        dims = [tuple(s.dim_vector().values()) for s in enumerate_subreps(m)]
        assert dims == [(0, 0), (0, 1), (1, 1)]

    def test_closure_brute_force(self):
        rng = random.Random(21)
        for _ in range(10):
            m = random_rep(rng, A3, F3, (2, 1, 2))
            subs = enumerate_subreps(m)
            keys = {s.canonical_key() for s in subs}
            assert len(keys) == len(subs)
            for s in subs:
                for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps):
                    img = apply(mat, s.spaces[src])
                    assert all(
                        s.spaces[tgt].contains_vector(row) for row in img.basis
                    )

    def test_sorted_canonically(self):
        m = kronecker_rep(F2, (2, 2), [[0, 0, 0, 0]])
        keys = [s.canonical_key() for s in enumerate_subreps(m)]
        assert keys == sorted(keys)

    def test_budget_enforced(self):
        m = kronecker_rep(F2, (2, 2), [[0, 0, 0, 0]])
        with pytest.raises(EnumerationBudgetError) as exc:
            enumerate_subreps(m, budget=3)
        assert exc.value.candidate_count == 25


class TestQuotient:
    def test_dims_add_up(self):
        rng = random.Random(22)
        for _ in range(30):
            m = random_rep(rng, A3, F3, (2, 2, 2))
            for s in enumerate_subreps(m):
                q, projs = quotient(m, s)
                for v in m.quiver.vertices:
                    assert q.dims[v] == m.dims[v] - s.spaces[v].dim
                    assert projs[v].nrows == q.dims[v]
                break

    def test_projection_kills_exactly_the_subrep(self):
        rng = random.Random(23)
        for _ in range(10):
            m = random_rep(rng, A3, F3, (2, 2, 2))
            subs = enumerate_subreps(m)
            s = subs[len(subs) // 2]
            _q, projs = quotient(m, s)
            for v in m.quiver.vertices:
                for row in s.spaces[v].basis:
                    assert not any(projs[v].apply_to(row))

    def test_preimage_round_trip(self):
        rng = random.Random(24)
        for _ in range(10):
            m = random_rep(rng, A3, F3, (2, 2, 1))
            subs = enumerate_subreps(m)
            s = subs[len(subs) // 2]
            q, _projs = quotient(m, s)
            for qs in enumerate_subreps(q):
                spaces = preimage_spaces(m, s, qs.spaces)
                lifted = Subrepresentation(m, spaces)
                assert sub_contains(lifted, s)
                for v in m.quiver.vertices:
                    assert spaces[v].dim == qs.spaces[v].dim + s.spaces[v].dim


class TestSemistability:
    def test_brute_force_agreement(self):
        rng = random.Random(25)
        q = Quiver.kronecker(1)
        params = params_for(q, (1, 0))
        for m in all_kronecker_reps(F2, (2, 1)):
            mu = slope(m.dims, params)
            verdict = all(
                slope(s.dim_vector(), params) <= mu
                for s in enumerate_subreps(m)
                if not s.is_zero()
            )
            assert is_semistable(m, params) == verdict

    def test_zero_rep_raises(self):
        m = kronecker_rep(F2, (0, 0), [[]])
        with pytest.raises(ZeroRepresentationError):
            is_semistable(m, params_for(m.quiver, (1, 0)))


class TestMaxDestabilizing:
    def test_oracle_agreement(self):
        # oracle: scan all non-zero subreps for max (slope, sigma)
        q = Quiver.kronecker(1)
        params = params_for(q, (1, 0))
        for m in all_kronecker_reps(F2, (2, 2)):
            s = max_destabilizing(m, params)
            best = max(
                (slope(x.dim_vector(), params), sigma_of(x.dim_vector(), params))
                for x in enumerate_subreps(m)
                if not x.is_zero()
            )
            d = s.dim_vector()
            assert (slope(d, params), sigma_of(d, params)) == best

    def test_semistable_gives_full(self):
        m = kronecker_rep(F2, (1, 1), [[1]])
        params = params_for(m.quiver, (1, 0))
        assert is_semistable(m, params)
        assert max_destabilizing(m, params).is_full()


class TestFiltration:
    def test_validation(self):
        m = kronecker_rep(F2, (1, 1), [[0]])
        full = Subrepresentation(m, m.full_spaces())
        zero = Subrepresentation(m, m.zero_spaces())
        Filtration(m, (full,))
        with pytest.raises(ValueError):
            Filtration(m, (zero, full))
        with pytest.raises(ValueError):
            Filtration(m, ())
        sub = Subrepresentation(
            m, {"v0": Subspace.full(F2, 1), "v1": Subspace.zero(F2, 1)}
        )
        with pytest.raises(ValueError):
            Filtration(m, (sub,))
        with pytest.raises(ValueError):
            Filtration(m, (full, full))

    def test_quotient_dims(self):
        m = kronecker_rep(F2, (1, 1), [[0]])
        sub = Subrepresentation(
            m, {"v0": Subspace.full(F2, 1), "v1": Subspace.zero(F2, 1)}
        )
        full = Subrepresentation(m, m.full_spaces())
        f = Filtration(m, (sub, full))
        assert f.quotient_dims() == [{"v0": 1, "v1": 0}, {"v0": 0, "v1": 1}]


class TestHNFiltration:
    def test_alpha_zero_kronecker(self):
        m = kronecker_rep(F2, (1, 1), [[0]])
        params = params_for(m.quiver, (1, 0))
        f = hn_filtration(m, params)
        assert f.step_dims() == [{"v0": 1, "v1": 0}, {"v0": 1, "v1": 1}]

    def test_semistable_gives_one_step(self):
        m = kronecker_rep(F2, (1, 1), [[1]])
        params = params_for(m.quiver, (1, 0))
        f = hn_filtration(m, params)
        assert len(f.steps) == 1

    def test_defining_properties_random(self):
        rng = random.Random(27)
        checked = 0
        while checked < 25:
            m = random_rep(rng, A3, F3, (2, 2, 2))
            if m.is_zero():
                continue
            params = params_for(
                A3,
                tuple(rng.randint(-2, 2) for _ in range(3)),
                tuple(rng.randint(1, 2) for _ in range(3)),
            )
            f = hn_filtration(m, params)
            report = check_hn_properties(m, f, params)
            assert report.ok, (m, params, report)
            checked += 1

    def test_first_step_is_max_destabilizing(self):
        rng = random.Random(28)
        checked = 0
        while checked < 15:
            m = random_rep(rng, A3, F3, (2, 2, 1))
            if m.is_zero():
                continue
            params = params_for(A3, tuple(rng.randint(-2, 2) for _ in range(3)))
            f = hn_filtration(m, params)
            assert f.steps[0] == max_destabilizing(m, params)
            checked += 1


class TestSeesaw:
    def test_no_violations_random(self):
        rng = random.Random(29)
        checked = 0
        while checked < 40:
            m = random_rep(rng, A3, F3, (2, 2, 2))
            if m.is_zero():
                continue
            params = params_for(
                A3,
                tuple(rng.randint(-2, 2) for _ in range(3)),
                tuple(rng.randint(1, 2) for _ in range(3)),
            )
            proper = [
                s
                for s in enumerate_subreps(m)
                if not s.is_zero() and not s.is_full()
            ]
            if not proper:
                continue
            s = proper[rng.randrange(len(proper))]
            assert seesaw_check(m, s, params) == []
            checked += 1


class TestReparameterization:
    def test_semistability_invariant(self):
        rng = random.Random(30)
        checked = 0
        while checked < 20:
            m = random_rep(rng, A3, F3, (2, 1, 2))
            if m.is_zero():
                continue
            params = params_for(
                A3,
                tuple(rng.randint(-2, 2) for _ in range(3)),
                tuple(rng.randint(1, 2) for _ in range(3)),
            )
            for a, b in ((1, 1), (2, -1), (3, 2)):
                p2 = reparam_theta(params, a, b)
                assert is_semistable(m, params) == is_semistable(m, p2)
            checked += 1

    def test_hn_subspaces_invariant(self):
        rng = random.Random(31)
        checked = 0
        while checked < 15:
            m = random_rep(rng, A3, F3, (2, 2, 1))
            if m.is_zero():
                continue
            params = params_for(A3, tuple(rng.randint(-2, 2) for _ in range(3)))
            f = hn_filtration(m, params)
            for a, b in ((1, 3), (2, -2), (4, 1)):
                p2 = reparam_theta(params, a, b)
                f2 = hn_filtration(m, p2)
                assert [s.spaces for s in f.steps] == [
                    s.spaces for s in f2.steps
                ]
            checked += 1

    def test_rejects_nonpositive_scale(self):
        params = params_for(A3, (1, 0, -1))
        with pytest.raises(ValueError):
            reparam_theta(params, 0, 1)
