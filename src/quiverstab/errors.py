"""Error classes shared across the package."""

from decimal import Decimal


class QuiverStabError(Exception):
    """Base class for all package-specific errors."""


class ZeroRepresentationError(QuiverStabError):
    """A stability operation was asked about the zero representation."""


class InvalidSubrepresentationError(QuiverStabError):
    """Candidate subspaces are not closed under the arrow maps."""


class EnumerationBudgetError(QuiverStabError):
    """An exhaustive stage would exceed the configured budget.

    ``stage`` names what was counted: "candidates" (subspace tuples
    tried by an enumeration) or "chains" (chains of the Kempf search).
    Chains are counted exactly; candidates only until the count passes
    the budget, so for them ``count`` is a lower bound.
    """

    def __init__(self, count, budget, stage):
        self.count = count
        self.budget = budget
        self.stage = stage
        bound = "at least " if stage == "candidates" else ""
        # Decimal prints an int of any length; str() refuses one longer
        # than sys.get_int_max_str_digits() digits
        super().__init__(
            f"enumeration would visit {bound}{Decimal(count)} {stage}, "
            f"budget is {Decimal(budget)}"
        )


class TheoremContradictionError(QuiverStabError):
    """An exhaustive computation violated a uniqueness claim.

    Raised when a maximal destabilizing subrepresentation, or a strict
    maximizer of the normalized destabilizing score, is not unique on a
    concrete instance.  This never fires unless the underlying theorem
    is false on that instance, so it is surfaced loudly instead of being
    resolved by a tie-break.
    """


class SemistableInputError(QuiverStabError):
    """An operation defined only for unstable input got semistable input."""


class DegenerateInputError(QuiverStabError):
    """Closed-form formula hit a degenerate parameter (zero denominator)."""
