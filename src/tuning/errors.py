"""Failure types raised by the analytic and simulation pipelines.

Every class carries a stable machine-readable ``code``; the command line
front end copies it into error documents and maps it onto exit statuses.
"""

from __future__ import annotations

__all__ = [
    "CycleLimitError", "DegenerateChainError", "NumericOverflowError",
    "PositivityError", "SingularSystemError", "TuningError",
]


class TuningError(Exception):
    """Base class for numeric and structural failures."""

    code = "TUNING_ERROR"


class SingularSystemError(TuningError):
    """The internal-block system (I - P00) is numerically singular.

    The one LU solve found the matrix exactly singular, or a column missed
    its residual bound in a way overflow does not explain (see
    fundamental_solve). For a validated model this means absorption is not
    actually certain, which contradicts the validation result, so it is
    reported as an internal inconsistency rather than a validation finding.
    """

    code = "SINGULAR_SYSTEM"


class PositivityError(TuningError):
    """Absorption probabilities are not strictly positive where required.

    The degenerate-policy reduction assumes every internal state can reach
    both boundary states; a zero entry breaks the ratio representation.
    """

    code = "B_NOT_POSITIVE"


class DegenerateChainError(TuningError):
    """The two-state boundary chain never moves between its states.

    Raised when the off-diagonal transition mass is below threshold, so no
    stationary distribution is identifiable.
    """

    code = "DEGENERATE_CHAIN"


class CycleLimitError(TuningError):
    """A single free-evolution segment exceeded the configured step limit."""

    code = "CYCLE_LIMIT"


class NumericOverflowError(TuningError):
    """A result left the float range although every input is finite.

    Raised when the expected segment income r, or a simulated total or
    scatter of incomes, overflows; reported instead of an Infinity or NaN
    in the output document. For r, every missed column of the one LU solve
    has a non-finite residual and another column met its bound.
    """

    code = "OVERFLOW"
