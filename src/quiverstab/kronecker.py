"""Kronecker modules: V + W with a multiplication map V (x) H -> W.

Equivalently, representations of the two-vertex quiver with dim H
parallel arrows.  Both readings of semistability are implemented so the
equivalence between them can be checked exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EnumerationBudgetError
from .linalg import PrimeField, Subspace, contains, enumerate_subspaces, subspace_count
from .quiver import (
    DEFAULT_BUDGET,
    Quiver,
    Representation,
    StabilityParams,
    Subrepresentation,
)


@dataclass
class KroneckerModule:
    """h component matrices of shape dim_w x dim_v over F_p."""

    field: PrimeField
    dim_v: int
    dim_w: int
    maps: tuple  # one Matrix per basis element of H

    def __post_init__(self):
        if not self.maps:
            raise ValueError("at least one component matrix required (h >= 1)")
        for m in self.maps:
            if m.field != self.field:
                raise ValueError("component matrix over the wrong field")
            if m.nrows != self.dim_w or m.ncols != self.dim_v:
                raise ValueError(
                    f"component matrices must be {self.dim_w}x{self.dim_v}"
                )

    @property
    def h(self) -> int:
        return len(self.maps)


@dataclass
class KroneckerSubmodule:
    """Pair (V', W') with every component matrix mapping V' into W'."""

    v_part: Subspace
    w_part: Subspace

    def dims(self):
        return (self.v_part.dim, self.w_part.dim)


def is_submodule(m: KroneckerModule, v_part: Subspace, w_part: Subspace) -> bool:
    for mat in m.maps:
        for row in v_part.basis:
            if not w_part.contains_vector(mat.apply_to(row)):
                return False
    return True


def enumerate_submodules(m: KroneckerModule, budget: int = DEFAULT_BUDGET):
    """All submodules, in canonical order (dims, then RREF bytes).  The
    candidate count is charged against the budget before any subspace
    is built."""
    count = subspace_count(m.dim_v, m.field.p) * subspace_count(m.dim_w, m.field.p)
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    v_subs = enumerate_subspaces(m.dim_v, m.field)
    w_subs = enumerate_subspaces(m.dim_w, m.field)
    out = []
    for v_part, w_part in itertools.product(v_subs, w_subs):
        if is_submodule(m, v_part, w_part):
            out.append(KroneckerSubmodule(v_part, w_part))
    out.sort(
        key=lambda s: (
            s.dims(),
            s.v_part.canonical_bytes(),
            s.w_part.canonical_bytes(),
        )
    )
    return out


def to_quiver_rep(m: KroneckerModule) -> Representation:
    """Two-vertex quiver with h parallel arrows; submodules correspond to
    subrepresentations."""
    quiver = Quiver.kronecker(m.h)
    return Representation(
        quiver, m.field, {"v0": m.dim_v, "v1": m.dim_w}, tuple(m.maps)
    )


def module_stability_params() -> StabilityParams:
    """theta = dim at the source vertex, sigma = total dimension."""
    return StabilityParams({"v0": 1, "v1": 0}, {"v0": 1, "v1": 1})


def is_semistable_module(m: KroneckerModule, budget: int = DEFAULT_BUDGET) -> bool:
    """Intrinsic semistability, cross-multiplied:
    dim V' * dim W <= dim V * dim W' for every submodule."""
    if m.dim_w < 1:
        raise ValueError(
            "intrinsic test needs dim W >= 1; use the quiver route otherwise"
        )
    for s in enumerate_submodules(m, budget):
        dv, dw = s.dims()
        if dv * m.dim_w > m.dim_v * dw:
            return False
    return True


def is_subordinate(a: KroneckerSubmodule, b: KroneckerSubmodule) -> bool:
    """True iff a's V-part grows into b's and b's W-part shrinks into a's."""
    return contains(b.v_part, a.v_part) and contains(a.w_part, b.w_part)


def is_tight(a: KroneckerSubmodule, m: KroneckerModule, budget: int = DEFAULT_BUDGET) -> bool:
    """Tight: subordinate to no submodule other than itself."""
    for b in enumerate_submodules(m, budget):
        if (b.v_part, b.w_part) == (a.v_part, a.w_part):
            continue
        if is_subordinate(a, b):
            return False
    return True


@dataclass
class EquivalenceReport:
    module_semistable: bool
    quiver_semistable: bool

    @property
    def agree(self) -> bool:
        return self.module_semistable == self.quiver_semistable


def equivalence_check(m: KroneckerModule, budget: int = DEFAULT_BUDGET) -> EquivalenceReport:
    """Intrinsic semistability vs quiver slope semistability with
    theta = (1, 0), sigma = (1, 1); expected to always agree."""
    from .quiver import is_semistable

    if m.dim_v + m.dim_w == 0:
        raise ValueError("the zero module has no semistability verdict")
    rep = to_quiver_rep(m)
    return EquivalenceReport(
        module_semistable=is_semistable_module(m, budget),
        quiver_semistable=is_semistable(rep, module_stability_params(), budget),
    )


def submodule_from_subrep(s: Subrepresentation) -> KroneckerSubmodule:
    """Read a subrepresentation of a two-vertex quiver back as a pair."""
    return KroneckerSubmodule(s.spaces["v0"], s.spaces["v1"])
