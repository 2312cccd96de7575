import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from quiverstab import (
    ExactScore,
    FiltrationGraph,
    Filtration,
    SemistableInputError,
    Subrepresentation,
    ZERO_SCORE,
    convex_envelope,
    graph_of,
    hn_filtration,
    is_semistable,
    is_zero_weights,
    kempf_filtration,
    kempf_function,
    kempf_semistability,
    mu_chi,
    mu_chi_per_vertex,
    mu_v,
    optimal_weights,
    refinement_domination_violations,
)

from conftest import A3, F2, F3, all_kronecker_reps, kronecker_rep, params_for, random_rep


def consecutive_partitions(n):
    """All splits of range(n) into consecutive non-empty blocks."""
    for cuts in itertools.product((0, 1), repeat=n - 1):
        blocks = []
        start = 0
        for i, c in enumerate(cuts, start=1):
            if c:
                blocks.append(list(range(start, i)))
                start = i
        blocks.append(list(range(start, n)))
        yield blocks


def isotonic_oracle(v, b):
    """Weighted isotonic fit by brute force over block partitions.

    Among partitions whose block means are non-decreasing, the fit
    minimizing the weighted squared error is the isotonic regression.
    """
    n = len(v)
    best_fit = None
    best_err = None
    for blocks in consecutive_partitions(n):
        fit = [None] * n
        means = []
        for blk in blocks:
            w = sum(b[i] for i in blk)
            mean = sum(b[i] * v[i] for i in blk) / w
            means.append(mean)
            for i in blk:
                fit[i] = mean
        if any(x > y for x, y in zip(means, means[1:])):
            continue
        err = sum(bi * (vi - fi) ** 2 for bi, vi, fi in zip(b, v, fit))
        if best_err is None or err < best_err:
            best_err = err
            best_fit = tuple(fit)
    return best_fit


def primitive_oracle(gamma):
    if all(x == 0 for x in gamma):
        return tuple(Fraction(0) for _ in gamma)
    denom = lcm(*(x.denominator for x in gamma))
    ints = [int(x * denom) for x in gamma]
    g = gcd(*ints)
    return tuple(Fraction(x, g) for x in ints)


def all_small_graphs(max_len=4, brange=(1, 2), vrange=range(-3, 4)):
    for n in range(1, max_len + 1):
        for b in itertools.product(brange, repeat=n):
            for v in itertools.product(vrange, repeat=n):
                if sum(bi * vi for bi, vi in zip(b, v)) != 0:
                    continue
                yield FiltrationGraph(
                    tuple(Fraction(x) for x in b),
                    tuple(Fraction(x) for x in v),
                )


class TestExactScore:
    def test_ordering(self):
        a = ExactScore(1, Fraction(2))      # +sqrt(2)
        b = ExactScore(1, Fraction(9, 4))   # +3/2
        c = ExactScore(-1, Fraction(1))     # -1
        assert c < ZERO_SCORE < a < b
        assert b > a > ZERO_SCORE > c
        assert a <= a and a >= a

    def test_sign_consistency_enforced(self):
        with pytest.raises(ValueError):
            ExactScore(0, Fraction(1))
        with pytest.raises(ValueError):
            ExactScore(1, Fraction(0))
        with pytest.raises(ValueError):
            ExactScore(2, Fraction(1))
        with pytest.raises(ValueError):
            ExactScore(1, Fraction(-1))

    def test_from_pairing(self):
        s = ExactScore.from_pairing(Fraction(-3), Fraction(2))
        assert s.sign == -1 and s.square == Fraction(9, 2)
        assert ExactScore.from_pairing(Fraction(0), Fraction(5)) == ZERO_SCORE
        with pytest.raises(ValueError):
            ExactScore.from_pairing(Fraction(1), Fraction(0))

    def test_order_matches_real_numbers(self):
        # sign * sqrt(square) compared via squares, cross-checked in floats
        import math

        rng = random.Random(40)
        for _ in range(200):
            scores = []
            for _ in range(2):
                sq = Fraction(rng.randint(0, 50), rng.randint(1, 9))
                sign = 0 if sq == 0 else rng.choice((-1, 1))
                scores.append(ExactScore(sign, sq if sign else Fraction(0)))
            a, b = scores
            fa = a.sign * math.sqrt(a.square)
            fb = b.sign * math.sqrt(b.square)
            if abs(fa - fb) > 1e-9:
                assert (a < b) == (fa < fb)


class TestFiltrationGraph:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FiltrationGraph((), ())
        with pytest.raises(ValueError):
            FiltrationGraph((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
        with pytest.raises(ValueError):
            FiltrationGraph((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))

    def test_cumulative_endpoints(self):
        g = FiltrationGraph(
            (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))
        )
        pts = g.cumulative()
        assert pts[0] == (0, 0)
        assert pts[-1] == (2, 0)

    def test_graph_of_alpha_zero(self):
        m = kronecker_rep(F2, (1, 1), [[0]])
        params = params_for(m.quiver, (1, 0))
        f = hn_filtration(m, params)
        g = graph_of(f, params)
        assert g.b == (Fraction(1), Fraction(1))
        assert g.v == (Fraction(-1), Fraction(1))


class TestConvexEnvelope:
    def test_matches_isotonic_oracle_exhaustive(self):
        for g in all_small_graphs():
            gamma = convex_envelope(g)
            fit = isotonic_oracle(g.v, g.b)
            assert gamma == primitive_oracle(fit), (g, gamma, fit)

    def test_zero_sentinel_when_already_flat(self):
        g = FiltrationGraph(
            (Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))
        )
        # v is decreasing: fit pools to the global mean 0
        assert convex_envelope(g) == (Fraction(0), Fraction(0))
        assert is_zero_weights(convex_envelope(g))

    def test_increasing_v_is_fixed_point(self):
        g = FiltrationGraph(
            (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))
        )
        assert convex_envelope(g) == (Fraction(-1), Fraction(1))

    def test_primitive_normalization(self):
        g = FiltrationGraph(
            (Fraction(2), Fraction(1)), (Fraction(-2), Fraction(4))
        )
        gamma = convex_envelope(g)
        denoms = [x.denominator for x in gamma]
        assert all(d == 1 for d in denoms)
        assert gcd(*(int(x) for x in gamma)) == 1

    def test_score_optimality_random_candidates(self):
        rng = random.Random(41)
        for g in itertools.islice(all_small_graphs(), 0, 500, 7):
            gamma = convex_envelope(g)
            if is_zero_weights(gamma):
                best = ZERO_SCORE
            else:
                best = mu_v(gamma, g)
            for _ in range(20):
                cand = sorted(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for _ in range(len(g.v))
                )
                if all(x == 0 for x in cand):
                    continue
                assert mu_v(tuple(cand), g) <= best


class TestScoreFunctions:
    def test_kempf_function_equals_mu_v(self):
        rng = random.Random(42)
        checked = 0
        while checked < 20:
            m = random_rep(rng, A3, F3, (2, 2, 2))
            if m.is_zero():
                continue
            params = params_for(
                A3,
                tuple(rng.randint(-2, 2) for _ in range(3)),
                tuple(rng.randint(1, 2) for _ in range(3)),
            )
            f = hn_filtration(m, params)
            g = graph_of(f, params)
            for _ in range(5):
                gamma = tuple(
                    Fraction(rng.randint(-4, 4)) for _ in range(len(f.steps))
                )
                if all(x == 0 for x in gamma):
                    continue
                assert kempf_function(f, gamma, params) == mu_v(gamma, g)
            checked += 1

    def test_mu_chi_identities(self):
        rng = random.Random(43)
        checked = 0
        while checked < 20:
            m = random_rep(rng, A3, F3, (2, 2, 2))
            if m.is_zero():
                continue
            params = params_for(
                A3,
                tuple(rng.randint(-2, 2) for _ in range(3)),
                tuple(rng.randint(1, 2) for _ in range(3)),
            )
            f = hn_filtration(m, params)
            gamma = tuple(
                Fraction(rng.randint(-4, 4)) for _ in range(len(f.steps))
            )
            assert mu_chi(f, gamma, params) == mu_chi_per_vertex(f, gamma, params)
            checked += 1

    def test_character_trivial_on_scalars(self):
        # the per-vertex exponents pair to zero against the ambient
        # dimension vector itself, for any theta, sigma, dims
        rng = random.Random(44)
        for _ in range(200):
            nv = rng.randint(1, 4)
            theta = [rng.randint(-5, 5) for _ in range(nv)]
            sigma = [rng.randint(1, 5) for _ in range(nv)]
            d = [rng.randint(0, 5) for _ in range(nv)]
            td = sum(t * x for t, x in zip(theta, d))
            sd = sum(s * x for s, x in zip(sigma, d))
            total = sum(
                (td * sv - sd * tv) * dv for tv, sv, dv in zip(theta, sigma, d)
            )
            assert total == 0

    def test_constant_gamma_scores_zero(self):
        # a one-parameter subgroup acting by a global scalar is trivial
        # on the quotient, so its pairing must vanish
        m = kronecker_rep(F2, (1, 1), [[0]])
        params = params_for(m.quiver, (1, 0))
        f = hn_filtration(m, params)
        assert kempf_function(f, (Fraction(3), Fraction(3)), params) == ZERO_SCORE


class TestOptimalWeights:
    def test_alpha_zero_example(self):
        m = kronecker_rep(F2, (1, 1), [[0]])
        params = params_for(m.quiver, (1, 0))
        f = hn_filtration(m, params)
        gamma, score = optimal_weights(f, params)
        assert gamma == (Fraction(-1), Fraction(1))
        assert score == ExactScore(1, Fraction(2))

    def test_zero_sentinel_on_semistable_chain(self):
        m = kronecker_rep(F2, (1, 1), [[1]])
        params = params_for(m.quiver, (1, 0))
        full = Subrepresentation(m, m.full_spaces())
        f = Filtration(m, (full,))
        gamma, score = optimal_weights(f, params)
        assert is_zero_weights(gamma)
        assert score == ZERO_SCORE


class TestKempfFiltration:
    def test_alpha_zero_example(self):
        m = kronecker_rep(F2, (1, 1), [[0]])
        params = params_for(m.quiver, (1, 0))
        f, gamma, score = kempf_filtration(m, params)
        assert f.step_dims() == [{"v0": 1, "v1": 0}, {"v0": 1, "v1": 1}]
        assert gamma == (Fraction(-1), Fraction(1))
        assert score == ExactScore(1, Fraction(2))

    def test_semistable_input_rejected(self):
        m = kronecker_rep(F2, (1, 1), [[1]])
        params = params_for(m.quiver, (1, 0))
        with pytest.raises(SemistableInputError):
            kempf_filtration(m, params)

    def test_equals_hn_small_exhaustive(self):
        q = kronecker_rep(F2, (1, 1), [[0]]).quiver
        params = params_for(q, (1, 0))
        for m in all_kronecker_reps(F2, (2, 1)):
            if is_semistable(m, params):
                continue
            hn = hn_filtration(m, params)
            kf, _gamma, _score = kempf_filtration(m, params)
            assert [s.spaces for s in hn.steps] == [s.spaces for s in kf.steps]

    def test_winner_graph_strictly_convex(self):
        rng = random.Random(45)
        checked = 0
        while checked < 10:
            m = random_rep(rng, A3, F3, (2, 2, 1))
            if m.is_zero():
                continue
            params = params_for(A3, tuple(rng.randint(-2, 2) for _ in range(3)))
            if is_semistable(m, params):
                continue
            f, gamma, _score = kempf_filtration(m, params)
            g = graph_of(f, params)
            assert all(a < b for a, b in zip(g.v, g.v[1:]))
            assert all(a < b for a, b in zip(gamma, gamma[1:]))
            checked += 1

    def test_heuristic_prune_agrees(self):
        rng = random.Random(46)
        checked = 0
        while checked < 10:
            m = random_rep(rng, A3, F3, (2, 2, 1))
            if m.is_zero():
                continue
            params = params_for(A3, tuple(rng.randint(-2, 2) for _ in range(3)))
            if is_semistable(m, params):
                continue
            f1, g1, s1 = kempf_filtration(m, params)
            f2, g2, s2 = kempf_filtration(m, params, heuristic_prune=True)
            assert [s.spaces for s in f1.steps] == [s.spaces for s in f2.steps]
            assert (g1, s1) == (g2, s2)
            checked += 1

    def test_refinement_domination(self):
        rng = random.Random(47)
        checked = 0
        while checked < 8:
            m = random_rep(rng, A3, F3, (2, 2, 1))
            if m.is_zero():
                continue
            params = params_for(A3, tuple(rng.randint(-2, 2) for _ in range(3)))
            if is_semistable(m, params):
                continue
            f, _gamma, score = kempf_filtration(m, params)
            assert refinement_domination_violations(m, f, params, score) == []
            checked += 1


class TestKempfSemistability:
    def test_agrees_with_slope_route_exhaustive(self):
        q_params = params_for(kronecker_rep(F2, (1, 1), [[0]]).quiver, (1, 0))
        for dims in ((1, 1), (2, 1), (1, 2)):
            for m in all_kronecker_reps(F2, dims):
                assert kempf_semistability(m, q_params) == is_semistable(
                    m, q_params
                )

    def test_agrees_random_a3(self):
        rng = random.Random(48)
        checked = 0
        while checked < 15:
            m = random_rep(rng, A3, F3, (2, 2, 1))
            if m.is_zero():
                continue
            params = params_for(
                A3,
                tuple(rng.randint(-2, 2) for _ in range(3)),
                tuple(rng.randint(1, 2) for _ in range(3)),
            )
            assert kempf_semistability(m, params) == is_semistable(m, params)
            checked += 1
