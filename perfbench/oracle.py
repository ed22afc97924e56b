"""Independent correctness oracle: ``np.linalg.solve`` and outer products.

Nothing here imports ``tuning``. One stacked solve against (I - P00)
gives the absorption probabilities b, the segment incomes r and the
expected internal steps t; the degenerate-pair table and the long-run
income follow from outer products and dot products. The oracle is itself
checked against the frozen exact values of the reference model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9
SE_BOUND = 5.0

# frozen exact optimum and minimum of models/reference.json, (m0, m1, value)
REFERENCE_MAX = (3, 3, Fraction(43, 15))
REFERENCE_MIN = (2, 2, Fraction(19, 10))


@dataclass(frozen=True, eq=False)
class Segments:
    """Per-start-state quantities: b is (n, 2), r and t are (n,)."""

    b: np.ndarray
    r: np.ndarray
    t: np.ndarray


def segments(arrays: dict[str, np.ndarray]) -> Segments:
    n = arrays["c"].shape[0]
    rhs = np.column_stack([arrays["p01"], arrays["c"], np.ones(n)])
    x = np.linalg.solve(np.eye(n) - arrays["p00"], rhs)
    return Segments(b=x[:, :2], r=x[:, 2], t=x[:, 3])


def degenerate_table(arrays: dict[str, np.ndarray], seg: Segments) -> np.ndarray:
    """Long-run income of every deterministic pair; [i, j] is labels (i+2, j+2)."""
    b0, b1 = seg.b[:, 0], seg.b[:, 1]
    num = np.outer(arrays["d0"] + seg.r, b0) + np.outer(b1, arrays["d1"] + seg.r)
    return num / np.add.outer(b1, b0)


def optimum(table: np.ndarray, direction: str = "maximize") -> tuple[int, int, float]:
    """Best pair as labels; argmax/argmin return the first flat index, which
    is the lexicographic tie-break."""
    flat = int(np.argmax(table) if direction == "maximize" else np.argmin(table))
    i, j = divmod(flat, table.shape[1])
    return i + 2, j + 2, float(table[i, j])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_solve(doc: dict, table: np.ndarray, samples: int) -> list[str]:
    """Failures of one ``solve`` result against the oracle's table scan.

    The pair must be the oracle's argmax unless the two table entries agree
    within 1e-9 relative (a tie at float precision), the value must match
    within 1e-9 relative, and the refutation must find no violation.
    """
    failures = []
    m0, m1, best = optimum(table, doc.get("direction", "maximize"))
    pair = (doc.get("m0_star"), doc.get("m1_star"))
    n = table.shape[0]
    if pair != (m0, m1):
        inside = all(isinstance(m, int) and 2 <= m < n + 2 for m in pair)
        if not inside or not _close(float(table[pair[0] - 2, pair[1] - 2]), best):
            failures.append(f"solve pair {pair} is not the oracle optimum ({m0}, {m1})")
    value = doc.get("value")
    if not isinstance(value, float) or not _close(value, best):
        failures.append(f"solve value {value!r} differs from oracle {best!r}")
    if samples:
        refutation = doc.get("refutation") or {}
        if refutation.get("samples") != samples or refutation.get("violations") != 0:
            failures.append(f"refutation {refutation!r} is not {samples} samples, 0 violations")
    return failures


@dataclass(frozen=True)
class LongRun:
    """Exact long-run income per cycle and mean internal steps per cycle."""

    income: float
    steps_per_cycle: float


def long_run(arrays: dict[str, np.ndarray], seg: Segments, alpha0: np.ndarray, alpha1: np.ndarray) -> LongRun:
    to1 = float(alpha0 @ seg.b[:, 1])
    to0 = float(alpha1 @ seg.b[:, 0])
    pi0, pi1 = to0 / (to0 + to1), to1 / (to0 + to1)
    rho0 = float(alpha0 @ (arrays["d0"] + seg.r))
    rho1 = float(alpha1 @ (arrays["d1"] + seg.r))
    steps = pi0 * float(alpha0 @ seg.t) + pi1 * float(alpha1 @ seg.t)
    return LongRun(income=pi0 * rho0 + pi1 * rho1, steps_per_cycle=steps)


def check_simulate(doc: dict, exact: float, cycles: int) -> list[str]:
    """Failures of one ``simulate`` result: cycle count and a 5-SE bound."""
    failures = []
    if doc.get("cycles") != cycles:
        failures.append(f"simulate ran {doc.get('cycles')!r} cycles, expected {cycles}")
    i_hat, se = doc.get("i_hat"), doc.get("std_error")
    if not isinstance(i_hat, float) or not isinstance(se, float) or not se > 0.0:
        failures.append(f"simulate result has i_hat={i_hat!r}, std_error={se!r}")
    elif abs(i_hat - exact) > SE_BOUND * se:
        failures.append(
            f"|i_hat - exact| = {abs(i_hat - exact):.3g} exceeds {SE_BOUND:g} * {se:.3g}"
        )
    return failures


def cycle_incomes(events: list[tuple[str, float]]) -> list[float]:
    """Per-cycle incomes of a sampled path, given (event_kind, income_delta)
    pairs: a cycle runs from a transfer to the next absorption; the warm-up
    segment and an unfinished last cycle are dropped."""
    incomes = []
    income = None
    for kind, delta in events:
        if kind == "transfer":
            income = delta
        elif kind == "absorption":
            if income is not None:
                incomes.append(income)
            income = None
        elif income is not None:
            income += delta
    return incomes


def check_trajectory(incomes: list[float], cycles: int, total_income: float) -> list[str]:
    """The first ``cycles`` path incomes, summed in order, must reproduce
    ``simulate``'s total exactly."""
    if len(incomes) < cycles:
        return [f"trajectory holds {len(incomes)} complete cycles, fewer than {cycles}"]
    total = 0.0
    for income in incomes[:cycles]:
        total += income
    if total != total_income:
        return [f"trajectory cycle sums give {total!r}, simulate gave {total_income!r}"]
    return []


def check_reference(arrays: dict[str, np.ndarray]) -> list[str]:
    """The oracle itself against the frozen exact reference values."""
    table = degenerate_table(arrays, segments(arrays))
    failures = []
    for direction, (m0, m1, exact) in (("maximize", REFERENCE_MAX), ("minimize", REFERENCE_MIN)):
        got = optimum(table, direction)
        if got[:2] != (m0, m1) or abs(got[2] - float(exact)) > 1e-12 * float(exact):
            failures.append(f"oracle {direction} gives {got}, expected ({m0}, {m1}, {exact})")
    return failures
