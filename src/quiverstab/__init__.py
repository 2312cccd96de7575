"""Exact slope stability for quiver representations over prime fields.

Provides canonical filtrations of unstable representations by two
independent routes (slope recursion and weighted-filtration score
maximization), tools to certify they coincide instance by instance, and
closed-form calculators for some curve-side examples.

The Kronecker-module helpers and the curve calculators load on first
use, so a process that only checks representations never imports them.
"""

from .errors import (
    DegenerateInputError,
    EnumerationBudgetError,
    InvalidSubrepresentationError,
    QuiverStabError,
    SemistableInputError,
    TheoremContradictionError,
    ZeroRepresentationError,
)
from .linalg import (
    Matrix,
    PrimeField,
    Subspace,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
)
from .quiver import (
    DEFAULT_BUDGET,
    Filtration,
    HNReport,
    Quiver,
    Representation,
    StabilityParams,
    SubrepLattice,
    Subrepresentation,
    check_hn_properties,
    enumerate_subreps,
    hn_filtration,
    is_semistable,
    is_subrep,
    max_destabilizing,
    sigma_of,
    slope,
    sub_contains,
    theta_of,
)
from .kempf import kempf_filtration, kempf_semistability

__version__ = "0.1.0"

# name -> the submodule it is read from on first use; a submodule's own
# name maps to itself
_LAZY = {
    **dict.fromkeys((
        "kronecker",
        "EquivalenceReport",
        "equivalence_check",
        "is_semistable_module",
        "is_subordinate",
        "is_tight",
        "module_stability_params",
    ), "kronecker"),
    **dict.fromkeys((
        "curves",
        "Rank2Candidate",
        "Rank2Result",
        "Rank3Slopes",
        "SplitBundle",
        "covering_value",
        "p1_hn",
        "p1_slope",
        "rank2_best",
        "rank2_value",
        "rank3_case_vectors",
        "rank3_weights",
    ), "curves"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


# a star import binds the lazy names too
__all__ = sorted(n for n in {*globals(), *_LAZY} if not n.startswith("_"))
