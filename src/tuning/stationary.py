"""Long-run average income of the controlled process.

Watching the process only at boundary hits gives a two-state chain on
{0, 1} whose transition row i mixes the absorption probabilities by the
intervention distribution used at boundary i:

    p_tilde[i, j] = sum_l alpha_i[l] * b[l, j]

Its stationary distribution is explicit,

    pi = (p_tilde[1, 0], p_tilde[0, 1]) / (p_tilde[0, 1] + p_tilde[1, 0]),

and the expected income of one boundary-to-boundary cycle started at
boundary i is

    rho[i] = sum_l alpha_i[l] * (d_i[l] + r[l]).

The long-run average income per cycle ("indicator") is pi @ rho. Three
algebraically equal routes are kept as independent code paths:

* ``embedded``    pi @ rho through the two-state chain (default, O(n));
* ``ratio``       single-sum ratio obtained by substituting pi;
* ``fractional``  double sums over the degenerate-policy tables (O(n^2)).

The tables make the deterministic policies explicit: for the strategy
that always restarts at label m0 from boundary 0 and m1 from boundary 1,

    a_table[m0, m1] = (d0[m0] + r[m0]) * b[m1, 0] + (d1[m1] + r[m1]) * b[m0, 1]
    b_table[m0, m1] = b[m0, 1] + b[m1, 0]
    c_table = a_table / b_table

and c_table[m0, m1] equals indicator(degenerate(m0, m1)); both raise where
b_table[m0, m1] <= DEGENERACY_TOL. Table indices are 0-based; add 2 for
state labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .absorption import AbsorptionAnalysis
from .errors import DegenerateChainError, NumericOverflowError
from .model import ChainSpec, Strategy, _check_strategy

DEGENERACY_TOL = 1e-14

ROUTES = ("embedded", "ratio", "fractional")


@dataclass(frozen=True, eq=False)
class CostCoefficients:
    """Degenerate-policy tables a, b, and their ratio c, each (n, n)."""

    a_table: np.ndarray
    b_table: np.ndarray
    c_table: np.ndarray


def _require_switching(off) -> None:
    """Raise DegenerateChainError unless every off-diagonal mass given
    exceeds DEGENERACY_TOL (none given passes)."""
    worst = float(np.min(off, initial=np.inf))
    if worst <= DEGENERACY_TOL:
        raise DegenerateChainError(
            f"boundary chain has off-diagonal mass {worst!r}, no unique stationary law"
        )


def embedded_transition(strategy: Strategy, analysis: AbsorptionAnalysis) -> np.ndarray:
    """2x2 transition matrix of the boundary-hit chain."""
    _check_strategy(strategy, analysis.b.shape[0])
    return np.vstack([strategy.alpha0 @ analysis.b, strategy.alpha1 @ analysis.b])


def stationary_distribution(p_tilde: np.ndarray) -> np.ndarray:
    """Stationary law of a 2x2 stochastic matrix, in closed form.

    Raises DegenerateChainError when the off-diagonal mass
    p_tilde[0, 1] + p_tilde[1, 0] is at or below 1e-14.
    """
    p_tilde = np.asarray(p_tilde, dtype=float)
    off = float(p_tilde[0, 1] + p_tilde[1, 0])
    _require_switching(off)
    return np.array([p_tilde[1, 0] / off, p_tilde[0, 1] / off])


def _rewards(spec: ChainSpec, analysis: AbsorptionAnalysis) -> tuple[np.ndarray, np.ndarray]:
    """Per-restart rewards g0 = d0 + r and g1 = d1 + r of cycles started at
    boundary 0 and 1; NumericOverflowError if one leaves the float range."""
    with np.errstate(over="ignore"):
        g0, g1 = spec.d0 + analysis.r, spec.d1 + analysis.r
    if not (np.isfinite(g0).all() and np.isfinite(g1).all()):
        raise NumericOverflowError("reward d + r overflowed the float range")
    return g0, g1


def visit_income(strategy: Strategy, spec: ChainSpec, analysis: AbsorptionAnalysis) -> np.ndarray:
    """Expected income of one cycle started at boundary 0 and 1."""
    _check_strategy(strategy, spec.n_internal)
    g0, g1 = _rewards(spec, analysis)
    return np.array([float(strategy.alpha0 @ g0), float(strategy.alpha1 @ g1)])


def _coefficient_tables(spec: ChainSpec, analysis: AbsorptionAnalysis) -> tuple[np.ndarray, np.ndarray]:
    """a_table and b_table, _ratio's numerator and denominator for every pair
    with its products and sums commuted (the same bits): a[m0, m1] =
    g0[m0] b[m1, 0] + b[m0, 1] g1[m1] and bt[m0, m1] = b[m0, 1] + b[m1, 0]."""
    g0, g1 = _rewards(spec, analysis)
    b0, b1 = analysis.b[:, 0], analysis.b[:, 1]
    return np.outer(g0, b0) + np.outer(b1, g1), np.add.outer(b1, b0)


def _ratio(rho0, rho1, to0, to1):
    """Ratio route from rho_i = alpha_i @ g_i, to0 = alpha1 @ b[:, 0] and
    to1 = alpha0 @ b[:, 1]: scalars, or arrays giving one value per strategy."""
    off = to0 + to1
    _require_switching(off)
    return (rho0 * to0 + rho1 * to1) / off


def cost_coefficients(spec: ChainSpec, analysis: AbsorptionAnalysis) -> CostCoefficients:
    """Build the degenerate-policy tables.

    Raises DegenerateChainError, as indicator does for that pair, if some
    b_table entry is at or below DEGENERACY_TOL, and NumericOverflowError
    when a reward or a c_table entry leaves the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, bt = _coefficient_tables(spec, analysis)
        _require_switching(bt)
        c = a / bt
    if not np.isfinite(c).all():
        raise NumericOverflowError("degenerate-policy table overflowed the float range")
    return CostCoefficients(a_table=a, b_table=bt, c_table=c)


def indicator(
    strategy: Strategy,
    spec: ChainSpec,
    analysis: AbsorptionAnalysis,
    route: str = "embedded",
) -> float:
    """Long-run average income per cycle under one strategy.

    The three routes are algebraically identical; keeping them separate
    gives an internal cross-check (they must agree to near machine
    precision on any valid input). All raise DegenerateChainError when
    the boundary chain never switches sides, and NumericOverflowError when
    the route's arithmetic leaves the float range.
    """
    _check_strategy(strategy, spec.n_internal)
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}, expected one of {ROUTES}")
    with np.errstate(over="ignore", invalid="ignore"):
        if route == "embedded":
            # rewards first, as on the other routes, so all three fail alike
            rho = visit_income(strategy, spec, analysis)
            pi = stationary_distribution(embedded_transition(strategy, analysis))
            value = float(pi @ rho)
        elif route == "ratio":
            (g0, g1), a0, a1 = _rewards(spec, analysis), strategy.alpha0, strategy.alpha1
            value = float(_ratio(a0 @ g0, a1 @ g1, a1 @ analysis.b[:, 0], a0 @ analysis.b[:, 1]))
        else:
            a, bt = _coefficient_tables(spec, analysis)
            weights = np.outer(strategy.alpha0, strategy.alpha1)
            den = float((bt * weights).sum())
            _require_switching(den)
            # a policy of weight 0 adds 0, even where its a entry overflowed
            value = float(np.where(weights != 0.0, a * weights, 0.0).sum()) / den
    if not np.isfinite(value):
        raise NumericOverflowError(f"{route} route value {value!r} overflowed the float range")
    return value
