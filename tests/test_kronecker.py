import itertools

import pytest

from quiverstab import (
    KroneckerModule,
    KroneckerSubmodule,
    Matrix,
    Quiver,
    Representation,
    Subspace,
    SubrepLattice,
    enumerate_submodules,
    equivalence_check,
    hn_filtration,
    is_semistable,
    is_semistable_module,
    is_submodule,
    is_subordinate,
    is_tight,
    module_stability_params,
    submodule_from_subrep,
    to_quiver_rep,
    kronecker,
    quiver,
)

from conftest import F2, F3
from oracles import full_subspace, identity_matrix, zero_matrix, zero_subspace


def all_modules(field, dim_v, dim_w, h):
    n = dim_v * dim_w
    for combo in itertools.product(
        itertools.product(range(field.p), repeat=n), repeat=h
    ):
        maps = tuple(
            Matrix(
                field,
                dim_w,
                dim_v,
                tuple(
                    tuple(entries[i * dim_v + j] for j in range(dim_v))
                    for i in range(dim_w)
                ),
            )
            for entries in combo
        )
        yield KroneckerModule(field, dim_v, dim_w, maps)


class TestModuleBasics:
    def test_component_shape_validation(self):
        with pytest.raises(ValueError):
            KroneckerModule(F2, 2, 1, (zero_matrix(F2, 2, 1),))
        with pytest.raises(ValueError):
            KroneckerModule(F2, 1, 1, ())

    def test_h_property(self):
        m = KroneckerModule(F2, 1, 1, (zero_matrix(F2, 1, 1),) * 3)
        assert m.h == 3

    def test_is_submodule_brute_force(self):
        m = KroneckerModule(F2, 2, 2, (identity_matrix(F2, 2),))
        v = Subspace.from_spanning(F2, 2, [[1, 0]])
        assert is_submodule(m, v, v)
        assert not is_submodule(m, v, zero_subspace(F2, 2))

    def test_enumerate_includes_extremes(self):
        m = KroneckerModule(F2, 1, 1, (identity_matrix(F2, 1),))
        subs = enumerate_submodules(m)
        dims = [s.dims() for s in subs]
        assert (0, 0) in dims and (1, 1) in dims


class TestQuiverTranslation:
    def test_round_trip_submodules(self):
        from quiverstab import enumerate_subreps

        for m in all_modules(F2, 2, 1, 1):
            rep = to_quiver_rep(m)
            via_rep = {
                (s.spaces["v0"], s.spaces["v1"])
                for s in enumerate_subreps(rep)
            }
            direct = {
                (s.v_part, s.w_part) for s in enumerate_submodules(m)
            }
            assert via_rep == direct

    def test_submodule_from_subrep(self):
        from quiverstab import enumerate_subreps

        m = KroneckerModule(F2, 1, 1, (zero_matrix(F2, 1, 1),))
        rep = to_quiver_rep(m)
        for s in enumerate_subreps(rep):
            sub = submodule_from_subrep(s)
            assert is_submodule(m, sub.v_part, sub.w_part)


class TestSemistability:
    def test_requires_positive_dim_w(self):
        m = KroneckerModule(F2, 1, 0, (zero_matrix(F2, 0, 1),))
        with pytest.raises(ValueError):
            is_semistable_module(m)

    def test_alpha_zero_unstable(self):
        m = KroneckerModule(F2, 1, 1, (zero_matrix(F2, 1, 1),))
        # (V, 0) is a submodule with dim V' * dim W = 1 > 0 = dim V * dim W'
        assert not is_semistable_module(m)

    def test_identity_semistable(self):
        m = KroneckerModule(F2, 1, 1, (identity_matrix(F2, 1),))
        assert is_semistable_module(m)

    def test_equivalence_exhaustive_small(self):
        for dv in range(3):
            for dw in range(1, 3):
                for h in (1, 2):
                    for m in all_modules(F2, dv, dw, h):
                        assert equivalence_check(m).agree

    def test_equivalence_enumerates_once(self, monkeypatch):
        calls = []
        original = quiver.enumerate_subreps

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(quiver, "enumerate_subreps", counting)
        monkeypatch.setattr(kronecker, "enumerate_subreps", counting)
        m = KroneckerModule(F3, 2, 2, (Matrix.from_rows(F3, [[1, 0], [0, 0]]),))
        report = equivalence_check(m)
        assert len(calls) == 1
        assert not report.module_semistable and not report.quiver_semistable


class TestSubordinateAndTight:
    def test_subordinate_reflexive_and_order(self):
        a = KroneckerSubmodule(
            zero_subspace(F2, 2), full_subspace(F2, 2)
        )
        b = KroneckerSubmodule(
            full_subspace(F2, 2), zero_subspace(F2, 2)
        )
        assert is_subordinate(a, a)
        assert is_subordinate(a, b)
        assert not is_subordinate(b, a)

    def test_full_module_not_tight_when_alpha_zero(self):
        m = KroneckerModule(F2, 1, 1, (zero_matrix(F2, 1, 1),))
        full = KroneckerSubmodule(full_subspace(F2, 1), full_subspace(F2, 1))
        # (V, 0) is a submodule and dominates (V, W) in the subordination order
        assert not is_tight(full, SubrepLattice(to_quiver_rep(m)))

    def test_tight_matches_brute_force(self):
        # brute force: sub is subordinate to no other submodule
        shapes = ((F2, 2, 1, 1), (F2, 1, 2, 2), (F2, 2, 2, 1), (F3, 1, 1, 2))
        for m in itertools.chain.from_iterable(itertools.starmap(all_modules, shapes)):
            lat = SubrepLattice(to_quiver_rep(m))
            submodules = enumerate_submodules(m)
            for sub in submodules:
                tight = not any(
                    is_subordinate(sub, b)
                    for b in submodules
                    if (b.v_part, b.w_part) != (sub.v_part, sub.w_part)
                )
                assert is_tight(sub, lat) == tight, (m, sub.dims())

    def test_tight_refuses_a_lattice_of_another_quiver(self):
        # the lattice of v0 -> v1 -> v2 has v0 and v1 parts, but no submodules
        q = Quiver(("v0", "v1", "v2"), (("v0", "v1"), ("v1", "v2")))
        one = Matrix.from_rows(F2, [[1]])
        lat = SubrepLattice(Representation(q, F2, dict.fromkeys(q.vertices, 1), (one, one)))
        full = KroneckerSubmodule(full_subspace(F2, 1), full_subspace(F2, 1))
        with pytest.raises(ValueError):
            is_tight(full, lat)

    def test_proper_hn_steps_tight(self):
        params = module_stability_params()
        for m in all_modules(F2, 2, 1, 1):
            lat = SubrepLattice(to_quiver_rep(m))
            if is_semistable(lat, params):
                continue
            f = hn_filtration(lat, params)
            for step in f.steps[:-1]:
                sub = submodule_from_subrep(step)
                assert is_tight(sub, lat), (m, sub.dims())
