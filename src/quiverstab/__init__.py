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
from .kempf import (
    ExactScore,
    ZERO_SCORE,
    kempf_filtration,
    kempf_semistability,
)
from .kronecker import (
    EquivalenceReport,
    equivalence_check,
    is_semistable_module,
    is_subordinate,
    is_tight,
    module_stability_params,
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
