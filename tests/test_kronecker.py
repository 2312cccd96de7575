import pytest

from quiverstab import (
    Matrix,
    Quiver,
    Representation,
    Subspace,
    SubrepLattice,
    Subrepresentation,
    equivalence_check,
    hn_filtration,
    is_semistable,
    is_semistable_module,
    is_subordinate,
    is_subrep,
    is_tight,
    module_stability_params,
    quiver,
)

from conftest import F2, F3, all_kronecker_reps, kronecker_rep
from oracles import full_subspace, zero_matrix, zero_subspace


def all_modules(field, dim_v, dim_w, h):
    """Every module V (x) F^h -> W over field: the representations of the
    h-Kronecker quiver with V at v0 and W at v1."""
    return all_kronecker_reps(field, (dim_v, dim_w), h)


def pair(parent, v_part, w_part):
    """The submodule (V', W') of parent, unchecked."""
    return Subrepresentation._closed(parent, {"v0": v_part, "v1": w_part})


class TestModuleBasics:
    def test_component_shape_validation(self):
        q = Quiver.kronecker(1)
        with pytest.raises(ValueError):
            Representation(q, F2, {"v0": 2, "v1": 1}, (zero_matrix(F2, 2, 1),))
        with pytest.raises(ValueError):
            Representation(q, F2, {"v0": 1, "v1": 1}, ())

    def test_h_property(self):
        # h = 3 parallel arrows are a module; no arrow at all is none
        m = kronecker_rep(F2, (1, 1), [[0]] * 3)
        assert not is_semistable_module(SubrepLattice(m))
        bare = Representation(Quiver.kronecker(0), F2, {"v0": 1, "v1": 1}, ())
        with pytest.raises(ValueError):
            is_semistable_module(SubrepLattice(bare))

    def test_is_submodule_brute_force(self):
        m = kronecker_rep(F2, (2, 2), [[1, 0, 0, 1]])
        v = Subspace.from_spanning(F2, 2, [[1, 0]])
        assert is_subrep(m, {"v0": v, "v1": v})
        assert not is_subrep(m, {"v0": v, "v1": zero_subspace(F2, 2)})

    def test_enumerate_includes_extremes(self):
        lat = SubrepLattice(kronecker_rep(F2, (1, 1), [[1]]))
        assert (0, 0) in lat.dims and (1, 1) in lat.dims


class TestSemistability:
    def test_requires_positive_dim_w(self):
        lat = SubrepLattice(kronecker_rep(F2, (1, 0), [[]]))
        with pytest.raises(ValueError):
            is_semistable_module(lat)
        with pytest.raises(ValueError):
            equivalence_check(lat)

    def test_alpha_zero_unstable(self):
        lat = SubrepLattice(kronecker_rep(F2, (1, 1), [[0]]))
        # (V, 0) is a submodule with dim V' * dim W = 1 > 0 = dim V * dim W'
        assert not is_semistable_module(lat)

    def test_identity_semistable(self):
        assert is_semistable_module(SubrepLattice(kronecker_rep(F2, (1, 1), [[1]])))

    def test_equivalence_exhaustive_small(self):
        for dv in range(3):
            for dw in range(1, 3):
                for h in (1, 2):
                    for m in all_modules(F2, dv, dw, h):
                        assert equivalence_check(SubrepLattice(m)).agree

    def test_equivalence_enumerates_once(self, monkeypatch):
        # both verdicts read the given lattice and enumerate nothing more
        lat = SubrepLattice(kronecker_rep(F3, (2, 2), [[1, 0, 0, 0]]))
        calls = []
        monkeypatch.setattr(quiver, "enumerate_subreps", lambda *a: calls.append(a))
        report = equivalence_check(lat)
        assert calls == []
        assert not report.module_semistable and not report.quiver_semistable


class TestSubordinateAndTight:
    def test_subordinate_reflexive_and_order(self):
        m = kronecker_rep(F2, (2, 2), [[0, 0, 0, 0]])
        a = pair(m, zero_subspace(F2, 2), full_subspace(F2, 2))
        b = pair(m, full_subspace(F2, 2), zero_subspace(F2, 2))
        assert is_subordinate(a, a)
        assert is_subordinate(a, b)
        assert not is_subordinate(b, a)

    def test_full_module_not_tight_when_alpha_zero(self):
        lat = SubrepLattice(kronecker_rep(F2, (1, 1), [[0]]))
        # (V, 0) is a submodule and dominates (V, W) in the subordination order
        assert not is_tight(lat.subs[-1], lat)

    def test_tight_matches_brute_force(self):
        # brute force: sub is subordinate to no other submodule
        shapes = ((F2, 2, 1, 1), (F2, 1, 2, 2), (F2, 2, 2, 1), (F3, 1, 1, 2))
        for shape in shapes:
            for m in all_modules(*shape):
                lat = SubrepLattice(m)
                for sub in lat.subs:
                    tight = not any(
                        is_subordinate(sub, b) for b in lat.subs if b is not sub
                    )
                    assert is_tight(sub, lat) == tight, (m, sub.dim_vector())

    def test_tight_refuses_a_lattice_of_another_quiver(self):
        # the lattice of v0 -> v1 -> v2 has v0 and v1 parts, but no submodules
        q = Quiver(("v0", "v1", "v2"), (("v0", "v1"), ("v1", "v2")))
        one = Matrix.from_rows(F2, [[1]])
        lat = SubrepLattice(Representation(q, F2, dict.fromkeys(q.vertices, 1), (one, one)))
        with pytest.raises(ValueError):
            is_tight(lat.subs[-1], lat)
        with pytest.raises(ValueError):
            equivalence_check(lat)

    def test_proper_hn_steps_tight(self):
        params = module_stability_params()
        for m in all_modules(F2, 2, 1, 1):
            lat = SubrepLattice(m)
            if is_semistable(lat, params):
                continue
            f = hn_filtration(lat, params)
            for step in f.steps[:-1]:
                assert is_tight(step, lat), (m, step.dim_vector())
