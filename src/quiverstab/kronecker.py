"""Kronecker modules: V + W with a multiplication map V (x) H -> W.

Such a module is a representation of the Kronecker quiver with dim H
parallel arrows, V at v0 and W at v1, and its submodules are exactly the
subrepresentations.  Every query here reads the SubrepLattice of that
representation.  Both readings of semistability are implemented so the
equivalence between them can be checked exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import contains
from .quiver import (
    Quiver,
    StabilityParams,
    SubrepLattice,
    Subrepresentation,
    is_semistable,
)


def module_stability_params() -> StabilityParams:
    """theta = dim at the source vertex, sigma = total dimension."""
    return StabilityParams({"v0": 1, "v1": 0}, {"v0": 1, "v1": 1})


def _require_module(lat: SubrepLattice):
    """The intrinsic test needs a Kronecker quiver with h >= 1 and dim W >= 1."""
    q = lat.rep.quiver
    if not q.arrows or q != Quiver.kronecker(len(q.arrows)):
        raise ValueError("not the lattice of a Kronecker module with dim H >= 1")
    if lat.rep.dims["v1"] < 1:
        raise ValueError(
            "intrinsic test needs dim W >= 1; use the quiver route otherwise"
        )


def is_semistable_module(lat: SubrepLattice) -> bool:
    """Intrinsic semistability, cross-multiplied:
    dim V' * dim W <= dim V * dim W' for every submodule (V', W')."""
    _require_module(lat)
    dim_v, dim_w = lat.dims[-1]
    return all(dv * dim_w <= dim_v * dw for dv, dw in lat.dims)


def is_subordinate(a: Subrepresentation, b: Subrepresentation) -> bool:
    """True iff a's V-part grows into b's and b's W-part shrinks into a's."""
    return contains(b.spaces["v0"], a.spaces["v0"]) and contains(
        a.spaces["v1"], b.spaces["v1"]
    )


def is_tight(a: Subrepresentation, lat: SubrepLattice) -> bool:
    """Tight: subordinate to no submodule other than itself, the
    submodules read off the lattice of the module."""
    if lat.rep.quiver != Quiver.kronecker(len(lat.rep.quiver.arrows)):
        raise ValueError("not the lattice of a Kronecker module")
    return not any(
        b.spaces != a.spaces and is_subordinate(a, b) for b in lat.subs
    )


@dataclass
class EquivalenceReport:
    module_semistable: bool
    quiver_semistable: bool

    @property
    def agree(self) -> bool:
        return self.module_semistable == self.quiver_semistable


def equivalence_check(lat: SubrepLattice) -> EquivalenceReport:
    """Intrinsic semistability vs quiver slope semistability with
    theta = (1, 0), sigma = (1, 1); expected to always agree.  Both
    verdicts read the one lattice: the intrinsic one cross-multiplies the
    submodule dimensions, the quiver one scans slopes."""
    return EquivalenceReport(
        module_semistable=is_semistable_module(lat),
        quiver_semistable=is_semistable(lat, module_stability_params()),
    )
