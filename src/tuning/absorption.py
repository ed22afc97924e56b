"""Single-segment analysis of the free evolution.

Between interventions the process runs on the internal states until it
hits the boundary. With P00 the internal block, everything needed later
is a linear solve against (I - P00):

* absorption probabilities  b[l, j] = P(hit boundary j | start at l),
  solving (I - P00) B = P01;
* expected pre-absorption income  r[l] = E[sum of c over the segment],
  solving (I - P00) r = c, with the starting state counted.

``analyze_chain`` gets both from one factorization, solving against the
stacked right-hand side [P01 | c].

Certain absorption makes (I - P00) nonsingular; a singular system on a
validated model is therefore reported as an internal inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, SingularSystemError
from .model import ChainSpec, ValidationReport, Violation

RESIDUAL_TOL = 1e-10
POSITIVITY_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class AbsorptionAnalysis:
    """Per-segment quantities: b is (n, 2), r is (n,)."""

    b: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        for name in ("b", "r"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def fundamental_solve(p00: np.ndarray, rhs: np.ndarray, *, residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Solve (I - P00) X = rhs by LU with partial pivoting.

    Each rhs column k is checked against its own bound: the solution must
    satisfy max|(I - P00) X[:, k] - rhs[:, k]| <= residual_tol *
    max(1, max|rhs[:, k]|), so stacking right-hand sides of different
    magnitudes into one solve loosens no column's check. Columns that miss
    their bound after the first solve get one step of iterative refinement.
    Raises SingularSystemError when the system is exactly or numerically
    singular.
    """
    p00 = np.asarray(p00, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    a = np.eye(p00.shape[0]) - p00
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"(I - P00) is singular: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularSystemError("(I - P00) is numerically singular, solution overflowed")
    if rhs.size == 0:
        return x

    cols = rhs.reshape(rhs.shape[0], -1)
    sol = x.reshape(cols.shape)
    bound = residual_tol * np.maximum(1.0, np.max(np.abs(cols), axis=0))
    miss = np.max(np.abs(a @ sol - cols), axis=0) > bound
    if miss.any():
        sol[:, miss] += np.linalg.solve(a, cols[:, miss] - a @ sol[:, miss])
        residual = np.max(np.abs(a @ sol - cols), axis=0)
        k = int(np.argmax(residual / bound))
        if not np.isfinite(sol).all() or residual[k] > bound[k]:
            raise SingularSystemError(
                f"(I - P00) is numerically singular: residual {residual[k]:.3e} "
                f"exceeds bound {bound[k]:.3e} after refinement"
            )
    return sol.reshape(x.shape)


def absorption_probabilities(spec: ChainSpec) -> np.ndarray:
    """Boundary-hit probabilities b, shape (n, 2); rows sum to 1."""
    return fundamental_solve(spec.p00, spec.p01)


def expected_income(spec: ChainSpec) -> np.ndarray:
    """Expected income r collected over one free-evolution segment, shape (n,)."""
    return fundamental_solve(spec.p00, spec.c)


def analyze_chain(spec: ChainSpec) -> AbsorptionAnalysis:
    """Solve for b and r with one factorization of (I - P00), on the
    stacked right-hand side [P01 | c].

    Raises NumericOverflowError when b solves cleanly on its own but r
    leaves the float range: (I - P00) is then sound and the incomes are
    too large, so SINGULAR_SYSTEM would misname the failure.
    """
    try:
        x = fundamental_solve(spec.p00, np.column_stack([spec.p01, spec.c]))
    except SingularSystemError:
        fundamental_solve(spec.p00, spec.p01)  # raises if (I - P00) is at fault
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.linalg.solve(np.eye(spec.n_internal) - spec.p00, spec.c)
        if np.isfinite(r).all():
            raise
        raise NumericOverflowError("expected segment income r overflowed the float range") from None
    return AbsorptionAnalysis(b=x[:, :2], r=x[:, 2])


def check_positivity(analysis: AbsorptionAnalysis, epsilon: float = POSITIVITY_EPS) -> ValidationReport:
    """Flag absorption probabilities that are not strictly positive.

    Strict positivity of every b entry underpins the ratio representation
    of the long-run income and the degenerate-policy reduction. The check
    is advisory at analysis time and enforced before solving.
    """
    errors = []
    for i, j in zip(*np.nonzero(analysis.b <= epsilon)):
        errors.append(
            Violation(
                "B_NOT_POSITIVE",
                f"absorption probability from state {i + 2} to boundary {j} "
                f"is {float(analysis.b[i, j])!r} (<= {epsilon!r})",
                int(i + 2),
            )
        )
    return ValidationReport(tuple(errors), ())
