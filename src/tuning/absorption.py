"""Single-segment analysis of the free evolution.

Between interventions the process runs on the internal states until it
hits the boundary. With P00 the internal block, everything needed later
is a linear solve against (I - P00):

* absorption probabilities  b[l, j] = P(hit boundary j | start at l),
  solving (I - P00) B = P01;
* expected pre-absorption income  r[l] = E[sum of c over the segment],
  solving (I - P00) r = c, with the starting state counted.

``analyze_chain`` gets both from one LU factorization of (I - P00) against
the stacked right-hand side [P01 | c], once per ChainSpec object, with no
refinement or second solve, whether it succeeds or fails.

Certain absorption makes (I - P00) nonsingular; a singular system on a
validated model is therefore reported as an internal inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, SingularSystemError
from .model import ChainSpec, ValidationReport, _frozen, _state_findings

RESIDUAL_TOL = 1e-10
POSITIVITY_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class AbsorptionAnalysis:
    """Per-segment quantities: b is (n, 2), r is (n,)."""

    b: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        for name in ("b", "r"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def fundamental_solve(p00: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - P00) X = rhs with one LU factorization (partial pivoting).

    Each rhs column k is checked against its own bound: the solution must
    satisfy max|(I - P00) X[:, k] - rhs[:, k]| <= RESIDUAL_TOL *
    max(1, max|rhs[:, k]|), so stacking right-hand sides of different
    magnitudes into one solve loosens no column's check. LU with partial
    pivoting is backward stable, so there is no refinement step: a column
    that misses is one the data do not determine. A column with a
    non-finite residual overflowed; if every miss did and some column met
    its bound, (I - P00) is sound and NumericOverflowError is raised (the
    column is c in analyze_chain, hence the message). Any other miss, or
    an exactly singular matrix, raises SingularSystemError.
    """
    p00 = np.asarray(p00, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    a = np.eye(p00.shape[0]) - p00
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"(I - P00) is singular: {exc}") from exc
    cols, sol = (rhs, x) if rhs.ndim == 2 else (rhs[:, None], x[:, None])
    bound = RESIDUAL_TOL * np.maximum(1.0, np.max(np.abs(cols), axis=0, initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # a residual near the float max may overflow
        residual = np.max(np.abs(a @ sol - cols), axis=0, initial=0.0)
        met = residual <= bound
        k = int(np.argmax(residual / bound))
    if met.all():
        return x
    if met.any() and not np.isfinite(residual[~met]).any():
        raise NumericOverflowError("expected segment income r overflowed the float range")
    raise SingularSystemError(
        f"(I - P00) is numerically singular: residual {residual[k]:.3e} "
        f"exceeds bound {bound[k]:.3e}"
    )


def analyze_chain(spec: ChainSpec) -> AbsorptionAnalysis:
    """The analysis of ``spec``, solved on the first call and stored on that
    frozen ChainSpec object, whose arrays are read-only; a failed solve
    stores nothing and raises again on every call."""
    memo = vars(spec)  # written directly, as functools.cached_property does
    if "_analysis" not in memo:
        x = fundamental_solve(spec.p00, np.column_stack([spec.p01, spec.c]))
        memo.setdefault("_analysis", AbsorptionAnalysis(x[:, :2], x[:, 2]))  # one winner if threads race
    return memo["_analysis"]


def check_positivity(analysis: AbsorptionAnalysis) -> ValidationReport:
    """Flag absorption probabilities at or below POSITIVITY_EPS.

    Strict positivity of every b entry underpins the ratio representation
    of the long-run income and the degenerate-policy reduction. The check
    is advisory at analysis time and enforced before solving.
    """
    errors = _state_findings("B_NOT_POSITIVE", analysis.b <= POSITIVITY_EPS, lambda label, j: (
        f"absorption probability from state {label} to boundary {j} "
        f"is {float(analysis.b[label - 2, j])!r} (<= {POSITIVITY_EPS!r})"))
    return ValidationReport(tuple(errors), ())
