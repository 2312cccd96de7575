"""Acceptance gate: one test per criterion, one pass/fail line each.

Criteria 1, 2 and 9 share a single exhaustive-plus-sampled verification
run over small Kronecker and path-quiver instances; its statistics are
computed once per session.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from quiverstab import (
    PrimeField,
    Rank3Slopes,
    SplitBundle,
    SubrepLattice,
    TheoremContradictionError,
    enumerate_subspaces,
    gaussian_binomial,
    hn_filtration,
    is_semistable,
    kempf,
    kempf_filtration,
    kempf_semistability,
    p1_hn,
    p1_slope,
    rank3_weights,
    enumerate_subreps,
    sigma_of,
    theta_of,
)
from quiverstab.cli import verify_result

from conftest import A3, F2, F3, params_for, random_rep
from oracles import (
    filtration_graph,
    primitive_oracle,
    refinement_domination_violations,
    reparam_theta,
    score_by_fractions,
    seesaw_check,
)
from test_kempf import all_small_graphs, envelope_blocks, isotonic_oracle
from test_kronecker import all_modules


def kronecker_problem(p, dims, entries_list, theta):
    dv, dw = dims
    matrices = {}
    for i, entries in enumerate(entries_list):
        matrices[str(i)] = [
            [entries[r * dv + c] for c in range(dv)] for r in range(dw)
        ]
    return {
        "field": {"p": p},
        "quiver": {
            "vertices": ["v0", "v1"],
            "arrows": [["v0", "v1"]] * len(entries_list),
        },
        "representation": {"dims": {"v0": dv, "v1": dw}, "matrices": matrices},
        "stability": {
            "theta": {"v0": theta[0], "v1": theta[1]},
            "sigma": {"v0": 1, "v1": 1},
        },
    }


def rep_problem(m, theta, sigma):
    order = m.quiver.vertices
    return {
        "field": {"p": m.field.p},
        "quiver": {
            "vertices": list(order),
            "arrows": [[s, t] for s, t in m.quiver.arrows],
        },
        "representation": {
            "dims": {v: m.dims[v] for v in order},
            "matrices": {
                str(i): [list(r) for r in mat.rows]
                for i, mat in enumerate(m.arrow_maps)
            },
        },
        "stability": {
            "theta": dict(zip(order, theta)),
            "sigma": dict(zip(order, sigma)),
        },
    }


def run_verify(problem, stats):
    try:
        result = verify_result(problem, 10**7)
    except TheoremContradictionError:
        stats["contradictions"] += 1
        stats["mismatches"] += 1
        return
    stats["instances"] += 1
    if result.get("semistable"):
        stats["semistable"] += 1
        if not result["match"]:
            stats["mismatches"] += 1
    else:
        stats["unstable"] += 1
        if not result["match"]:
            stats["mismatches"] += 1


def main_theorem_problems():
    """(criterion, problem) for every instance of the criterion 1 and 2
    sweep: exhaustive small Kronecker families, then 200 random A3 reps."""
    thetas = list(itertools.product(range(-2, 3), repeat=2))
    for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
        n = dims[0] * dims[1]
        for entries in itertools.product(range(2), repeat=n):
            for theta in thetas:
                yield 1, kronecker_problem(2, dims, [list(entries)], theta)

    for dims in ((1, 1), (2, 1), (1, 0), (2, 0), (0, 1)):
        n = dims[0] * dims[1]
        for pair in itertools.product(
            itertools.product(range(2), repeat=n), repeat=2
        ):
            for theta in thetas:
                yield 2, kronecker_problem(
                    2, dims, [list(pair[0]), list(pair[1])], theta
                )
    rng = random.Random(20260823)
    sampled = 0
    while sampled < 200:
        m = random_rep(rng, A3, F3, (2, 2, 2))
        if m.is_zero():
            continue
        theta = tuple(rng.randint(-2, 2) for _ in range(3))
        sigma = tuple(rng.randint(1, 2) for _ in range(3))
        yield 2, rep_problem(m, theta, sigma)
        sampled += 1


@pytest.fixture(scope="session")
def main_theorem_stats():
    stats = {
        "instances": 0,
        "semistable": 0,
        "unstable": 0,
        "mismatches": 0,
        "contradictions": 0,
        "seconds_c1": 0.0,
        "seconds_c2": 0.0,
    }
    t0 = time.monotonic()
    for criterion, problem in main_theorem_problems():
        run_verify(problem, stats)
        t1 = time.monotonic()
        stats[f"seconds_c{criterion}"] += t1 - t0
        t0 = t1
    return stats


def test_criterion_1_main_theorem_1_arrow_kronecker(main_theorem_stats):
    s = main_theorem_stats
    assert s["mismatches"] == 0
    assert s["seconds_c1"] < 60.0
    print(
        f"[PASS] criterion 1: 1-arrow Kronecker exhaustive verify, "
        f"0 mismatches in {s['seconds_c1']:.1f}s"
    )


def test_criterion_2_main_theorem_2_arrow_and_a3(main_theorem_stats):
    s = main_theorem_stats
    assert s["mismatches"] == 0
    assert s["unstable"] > 0
    assert s["seconds_c2"] < 300.0
    print(
        f"[PASS] criterion 2: 2-arrow Kronecker + 200 random A3 reps, "
        f"0 mismatches in {s['seconds_c2']:.1f}s"
    )


def test_criterion_3_envelope_vs_oracle():
    checked = 0
    for b, v in all_small_graphs():
        blocks, score = envelope_blocks(b, v)
        gamma = primitive_oracle(isotonic_oracle(v, b))
        # the chain of envelope_blocks(b, v) has the graph (b, sum(b) v)
        chain_v = tuple(sum(b) * x for x in v)
        flat = all(x == 0 for x in gamma)
        assert (kempf._gamma(blocks), score) == (
            gamma, Fraction(0) if flat else score_by_fractions(gamma, b, chain_v)
        )
        # tied means are pooled: one step per block iff gamma increases
        strict = all(x < y for x, y in zip(gamma, gamma[1:]))
        assert (len(blocks) == len(b)) == strict
        checked += 1
    assert checked > 1000
    print(
        f"[PASS] criterion 3: envelope equals least-squares oracle on "
        f"{checked} graphs, 0 discrepancies"
    )


def test_criterion_4_rank3_pinned_value():
    case, gamma = rank3_weights(Rank3Slopes((-5, 1, 4), Fraction(1, 3)))
    assert case == "(1,3)"
    assert gamma == (Fraction(-14, 13), Fraction(1, 13), Fraction(1))
    print("[PASS] criterion 4: rank-3 worked example gives (-14/13, 1/13, 1)")


def test_criterion_5_subspace_counts():
    for p in (2, 3):
        field = PrimeField(p)
        for n in range(5):
            subs = enumerate_subspaces(n, field)
            for k in range(n + 1):
                assert sum(s.dim == k for s in subs) == gaussian_binomial(n, k, p)
    assert sum(s.dim == 1 for s in enumerate_subspaces(3, PrimeField(2))) == 7
    print("[PASS] criterion 5: subspace counts equal Gaussian binomials")


def pairing_collected(f, gamma, params):
    """Pairing of the weighted filtration with the stability character:
    sum_i Gamma_i [theta(M) sigma(M^i) - sigma(M) theta(M^i)]."""
    tm = theta_of(f.parent.dims, params)
    sm = sigma_of(f.parent.dims, params)
    return sum(
        gi * (tm * sigma_of(d, params) - sm * theta_of(d, params))
        for gi, d in zip(gamma, f.quotient_dims())
    )


def pairing_per_vertex(f, gamma, params):
    """The same pairing via the per-vertex character exponents
    theta(M) sigma_v - sigma(M) theta_v."""
    m = f.parent
    tm = theta_of(m.dims, params)
    sm = sigma_of(m.dims, params)
    return sum(
        (tm * params.sigma[v] - sm * params.theta[v])
        * sum(gi * d[v] for gi, d in zip(gamma, f.quotient_dims()))
        for v in m.quiver.vertices
    )


def test_criterion_6_property_suites():
    rng = random.Random(777)

    seesaw_checked = 0
    while seesaw_checked < 30:
        m = random_rep(rng, A3, F3, (2, 2, 2))
        if m.is_zero():
            continue
        params = params_for(
            A3,
            tuple(rng.randint(-2, 2) for _ in range(3)),
            tuple(rng.randint(1, 2) for _ in range(3)),
        )
        proper = [
            s for s in enumerate_subreps(m) if not s.is_zero() and not s.is_full()
        ]
        if not proper:
            continue
        assert seesaw_check(m, proper[rng.randrange(len(proper))], params) == []
        seesaw_checked += 1

    reparam_checked = 0
    while reparam_checked < 15:
        m = random_rep(rng, A3, F3, (2, 2, 1))
        if m.is_zero():
            continue
        params = params_for(A3, tuple(rng.randint(-2, 2) for _ in range(3)))
        lat = SubrepLattice(m)
        f = hn_filtration(lat, params)
        for a, b in ((2, 1), (3, -2)):
            p2 = reparam_theta(params, a, b)
            assert is_semistable(lat, params) == is_semistable(lat, p2)
            f2 = hn_filtration(lat, p2)
            assert [s.spaces for s in f.steps] == [s.spaces for s in f2.steps]
        reparam_checked += 1

    kempf_checked = 0
    while kempf_checked < 10:
        m = random_rep(rng, A3, F3, (2, 2, 1))
        if m.is_zero():
            continue
        params = params_for(A3, tuple(rng.randint(-2, 2) for _ in range(3)))
        lat = SubrepLattice(m)
        if is_semistable(lat, params):
            continue
        f, gamma, score = kempf_filtration(lat, params)
        _b, v = filtration_graph(f, params)
        # strict convexity of the winner graph
        assert all(x < y for x, y in zip(v, v[1:]))
        # refinement domination
        assert refinement_domination_violations(lat, f, params, score) == []
        # per-vertex vs collected pairing identity
        assert pairing_collected(f, gamma, params) == pairing_per_vertex(
            f, gamma, params
        )
        kempf_checked += 1

    for _ in range(200):
        nv = rng.randint(1, 4)
        theta = [rng.randint(-5, 5) for _ in range(nv)]
        sigma = [rng.randint(1, 5) for _ in range(nv)]
        d = [rng.randint(0, 5) for _ in range(nv)]
        td = sum(t * x for t, x in zip(theta, d))
        sd = sum(s * x for s, x in zip(sigma, d))
        assert sum(
            (td * sv - sd * tv) * dv for tv, sv, dv in zip(theta, sigma, d)
        ) == 0

    print(
        "[PASS] criterion 6: seesaw, reparameterization, convexity, "
        "refinement domination, pairing identities all hold"
    )


def test_criterion_7_kronecker_equivalence_and_tightness():
    from quiverstab import equivalence_check, is_tight, module_stability_params

    params = module_stability_params()
    modules = 0
    unstable = 0
    for dv in range(3):
        for dw in range(1, 3):
            for h in (1, 2):
                for m in all_modules(F2, dv, dw, h):
                    lat = SubrepLattice(m)
                    assert equivalence_check(lat).agree
                    modules += 1
                    if is_semistable(lat, params):
                        continue
                    unstable += 1
                    f = hn_filtration(lat, params)
                    for step in f.steps[:-1]:
                        assert is_tight(step, lat)
    assert unstable > 0
    print(
        f"[PASS] criterion 7: semistability equivalence on {modules} modules, "
        f"proper filtration steps tight on {unstable} unstable ones"
    )


def test_criterion_8_p1_calculator():
    e = SplitBundle(((2, 1), (0, 1), (-1, 1)))
    steps = p1_hn(e)
    slopes = [s.blocks[-1][0] for s in steps]
    assert slopes == [2, 0, -1]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    prev_rank, prev_deg = 0, 0
    for s in steps:
        # each quotient is one block: constant slope, hence semistable
        blk_deg, blk_mult = s.blocks[-1]
        assert s.rank - prev_rank == blk_mult
        assert Fraction(s.degree - prev_deg, blk_mult) == blk_deg
        prev_rank, prev_deg = s.rank, s.degree

    rng = random.Random(888)
    for _ in range(100):
        nblocks = rng.randint(1, 4)
        degs = sorted(rng.sample(range(-10, 11), nblocks), reverse=True)
        b = SplitBundle(tuple((d, rng.randint(1, 3)) for d in degs))
        num = sum(a * m for a, m in b.blocks)
        den = sum(m for _, m in b.blocks)
        assert p1_slope(b) == Fraction(num, den)
    print("[PASS] criterion 8: split-bundle filtration and exact slope formula")


def test_criterion_9_uniqueness_sentinels(main_theorem_stats):
    assert main_theorem_stats["contradictions"] == 0
    print(
        f"[PASS] criterion 9: 0 theorem-contradiction errors across "
        f"{main_theorem_stats['instances']} verified instances"
    )
