"""Exact slope stability for quiver representations over prime fields.

Provides canonical filtrations of unstable representations by two
independent routes (slope recursion and weighted-filtration score
maximization), tools to certify they coincide instance by instance, and
closed-form calculators for some curve-side examples.
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
    apply,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    rref,
    subspace_sum,
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
from .kempf import (
    ExactScore,
    FiltrationGraph,
    ZERO_SCORE,
    convex_envelope,
    graph_of,
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
from .kronecker import (
    EquivalenceReport,
    KroneckerModule,
    KroneckerSubmodule,
    enumerate_submodules,
    equivalence_check,
    is_semistable_module,
    is_submodule,
    is_subordinate,
    is_tight,
    module_stability_params,
    submodule_from_subrep,
    to_quiver_rep,
)
from .curves import (
    Rank2Candidate,
    Rank2Result,
    Rank3Slopes,
    SplitBundle,
    covering_value,
    p1_hn,
    p1_slope,
    rank2_best,
    rank2_value,
    rank3_case_vectors,
    rank3_weights,
)

__version__ = "0.1.0"
