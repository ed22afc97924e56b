"""Independent oracles used to cross-check the library.

Nothing here calls into the package's numeric paths: linear algebra is
redone in exact rational arithmetic (Gauss-Jordan over Fractions), the
fundamental matrix is re-derived as a truncated power series, and
absorption statistics come from a vectorized batch random walk that
shares no code with the sequential simulator. ``ladder_analysis`` keeps
an earlier release's refined, three-solve classification of a failed
solve as the reference for the package's single solve, and
``full_matrix_refutation`` draws and normalizes each of the refutation's
four strategy matrices whole, on one thread, as the reference for the
package's chunked, threaded draw. ``boundary_unreachable`` finds the
states that cannot reach the boundary by a breadth-first search backwards
from it, over Python lists.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# exact rational linear algebra

def exact_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Fractions; raises ZeroDivisionError if singular."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _frac_matrix(arr) -> list[list[Fraction]]:
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(np.asarray(arr, dtype=float))]


def _matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def exact_analysis(spec) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact absorption probabilities and per-segment incomes.

    Solves (I - P00) against P01 and c in rational arithmetic, treating
    the stored float entries as exact rationals.
    """
    n = spec.n_internal
    p00 = _frac_matrix(spec.p00)
    i_minus = [
        [Fraction(int(i == j)) - p00[i][j] for j in range(n)]
        for i in range(n)
    ]
    fundamental = exact_inverse(i_minus)
    b = _matmul(fundamental, _frac_matrix(spec.p01))
    r_col = _matmul(fundamental, [[Fraction(float(v))] for v in spec.c])
    return b, [row[0] for row in r_col]


def exact_tables(spec):
    """Exact policy tables (a, b, c) as Fraction grids."""
    b, r = exact_analysis(spec)
    n = spec.n_internal
    g0 = [Fraction(float(spec.d0[i])) + r[i] for i in range(n)]
    g1 = [Fraction(float(spec.d1[i])) + r[i] for i in range(n)]
    a_t = [[g0[m0] * b[m1][0] + g1[m1] * b[m0][1] for m1 in range(n)] for m0 in range(n)]
    b_t = [[b[m0][1] + b[m1][0] for m1 in range(n)] for m0 in range(n)]
    c_t = [
        [a_t[m0][m1] / b_t[m0][m1] if b_t[m0][m1] != 0 else None for m1 in range(n)]
        for m0 in range(n)
    ]
    return a_t, b_t, c_t


def exact_indicator(spec, alpha0, alpha1) -> Fraction:
    """Exact long-run average income for an arbitrary strategy pair."""
    b, r = exact_analysis(spec)
    n = spec.n_internal
    a0 = [Fraction(float(v)) for v in alpha0]
    a1 = [Fraction(float(v)) for v in alpha1]
    g0 = [Fraction(float(spec.d0[i])) + r[i] for i in range(n)]
    g1 = [Fraction(float(spec.d1[i])) + r[i] for i in range(n)]
    to1 = sum(a0[i] * b[i][1] for i in range(n))
    to0 = sum(a1[i] * b[i][0] for i in range(n))
    rho0 = sum(a0[i] * g0[i] for i in range(n))
    rho1 = sum(a1[i] * g1[i] for i in range(n))
    return (rho0 * to0 + rho1 * to1) / (to0 + to1)


# ---------------------------------------------------------------------------
# float-side re-derivations

def neumann_fundamental(p00, tail_tol: float = 1e-10, max_terms: int = 200_000) -> np.ndarray:
    """Fundamental matrix as the power series I + P + P^2 + ..., truncated
    once the max row sum of the current power drops below tail_tol."""
    p00 = np.asarray(p00, dtype=float)
    total = np.eye(p00.shape[0])
    power = np.eye(p00.shape[0])
    for _ in range(max_terms):
        power = power @ p00
        total += power
        if np.abs(power).sum(axis=1).max() < tail_tol:
            return total
    raise RuntimeError("power series did not converge, absorption may not be certain")


def mc_absorption(spec, start_index: int, runs: int, seed: int):
    """Batch random walk from one internal state to absorption.

    Returns (boundary frequencies (2,), mean segment income, standard
    error of the income mean). Independent of the package simulator:
    whole cohorts advance in lockstep via vectorized categorical draws.
    """
    rng = np.random.default_rng(seed)
    probs = np.hstack([spec.p01, spec.p00])  # columns: labels 0, 1, 2..N
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0

    states = np.full(runs, start_index, dtype=np.int64)
    income = np.full(runs, float(spec.c[start_index]))
    hit = np.zeros((runs,), dtype=np.int64)
    alive = np.arange(runs)
    while alive.size:
        u = rng.random(alive.size)
        rows = cum[states[alive]]
        choice = (rows <= u[:, None]).sum(axis=1)
        absorbed = choice < 2
        hit[alive[absorbed]] = choice[absorbed]
        moved = ~absorbed
        next_internal = choice[moved] - 2
        income[alive[moved]] += spec.c[next_internal]
        states[alive[moved]] = next_internal
        alive = alive[moved]

    freq = np.array([(hit == 0).mean(), (hit == 1).mean()])
    return freq, float(income.mean()), float(income.std(ddof=1) / np.sqrt(runs))


class _LadderSingular(Exception):
    pass


def _refined_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a X = rhs with one step of iterative refinement on each column
    that misses its residual bound 1e-10 * max(1, max|rhs[:, k]|)."""
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise _LadderSingular from exc
    if not np.isfinite(x).all():
        raise _LadderSingular
    if rhs.size == 0:
        return x
    cols = rhs.reshape(rhs.shape[0], -1)
    sol = x.reshape(cols.shape)
    bound = 1e-10 * np.maximum(1.0, np.max(np.abs(cols), axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        miss = np.max(np.abs(a @ sol - cols), axis=0) > bound
        if miss.any():
            sol[:, miss] += np.linalg.solve(a, cols[:, miss] - a @ sol[:, miss])
            residual = np.max(np.abs(a @ sol - cols), axis=0)
            k = int(np.argmax(residual / bound))
            if not np.isfinite(sol).all() or residual[k] > bound[k]:
                raise _LadderSingular
    return sol.reshape(x.shape)


def ladder_analysis(spec):
    """Error code, b and r by the three-solve ladder of an earlier release.

    The stacked [P01 | c] is solved with refinement; if it fails, P01 is
    solved alone (a failure there is SINGULAR_SYSTEM), then c alone: a
    non-finite r or (I - P00) r is OVERFLOW, anything else SINGULAR_SYSTEM.
    Returns ("ok", b, r) on success and (code, None, None) otherwise.
    """
    a = np.eye(spec.n_internal) - spec.p00
    try:
        x = _refined_solve(a, np.column_stack([spec.p01, spec.c]))
    except _LadderSingular:
        try:
            _refined_solve(a, spec.p01)
        except _LadderSingular:
            return "SINGULAR_SYSTEM", None, None
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.linalg.solve(a, spec.c)
            if np.isfinite(r).all() and np.isfinite(a @ r).all():
                return "SINGULAR_SYSTEM", None, None
        return "OVERFLOW", None, None
    return "ok", x[:, :2], x[:, 2]


def _simplex_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """Uniform draws from the probability simplex (flat Dirichlet), one per
    row, from one random_raw call: each 64-bit word gives two 32-bit halves,
    low half first, and the top 23 bits k of each the uniform
    U = (2k + 1) 2^-24, formed exactly in float64 and rounded to float32
    without loss; the float32 logs, normalized, are the rows."""
    words = rng.bit_generator.random_raw(-(-rows * n // 2))
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).reshape(-1)[: rows * n]
    u = ((2.0 * (halves >> 9) + 1.0) * 2.0**-24).astype(np.float32)
    x = np.log(u).astype(np.float64).reshape(rows, n)
    return x / x.sum(axis=1)[:, None]


def _ratio_values(alpha0: np.ndarray, alpha1: np.ndarray, spec, analysis):
    """Ratio route for one strategy, shape (n,) alphas, or for a batch of
    strategies, shape (k, n) alphas giving k values."""
    from tuning.stationary import _require_switching, _rewards

    to0 = alpha1 @ analysis.b[:, 0]
    to1 = alpha0 @ analysis.b[:, 1]
    off = to0 + to1
    _require_switching(off)
    g0, g1 = _rewards(spec, analysis)
    return ((alpha0 @ g0) * to0 + (alpha1 @ g1) * to1) / off


def full_matrix_refutation(spec, control, samples: int, seed: int):
    """The package's refutation drawn whole, for samples > 0: each stream's
    rows in one (rows, labels) draw, normalized and evaluated in one batch,
    on one thread. The first samples - samples // 2 pairs are flat on all
    labels, alpha0 and alpha1 from the PCG64 streams of
    SeedSequence(seed, spawn_key=(0,)) and (1,); the rest are flat on the 4
    labels per side with the best q-values of the claimed pair (ties to the
    lower label), from (2,) and (3,), and are zero elsewhere. A violation is
    a value beyond the optimum by more than DOMINANCE_TOL * max(1, |value|)."""
    from tuning import RefutationReport, analyze_chain
    from tuning.optimizer import DOMINANCE_TOL, SIGNS
    from tuning.stationary import _rewards

    n, s, analysis = spec.n_internal, SIGNS[control.direction], analyze_chain(spec)
    g0, g1 = _rewards(spec, analysis)
    b0, b1 = analysis.b[:, 0], analysis.b[:, 1]
    m0, m1 = control.m0_star - 2, control.m1_star - 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = (s * g1[m1] - s * g0[m0]) / (b1[m0] + b0[m1])
        q0, q1 = s * g0 + b1 * h, s * g1 - b0 * h
    tops = [np.argsort(-q, kind="stable")[:4] for q in (q0, q1)]
    flat, targeted = samples - samples // 2, samples // 2
    alphas = []
    for side in (0, 1):
        flat_rng, top_rng = (
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))
            for key in (side, side + 2)
        )
        on_top = np.zeros((targeted, n))
        on_top[:, tops[side]] = _simplex_rows(top_rng, targeted, len(tops[side]))
        alphas.append(np.vstack([_simplex_rows(flat_rng, flat, n), on_top]))
    with np.errstate(over="ignore", invalid="ignore"):
        values = _ratio_values(alphas[0], alphas[1], spec, analysis)
    best = s * float(np.max(s * values))
    violations = int((s * values > s * control.value + DOMINANCE_TOL * max(1.0, abs(control.value))).sum())
    gap = s * control.value - s * best
    return RefutationReport(
        samples=samples, seed=seed, tolerance=DOMINANCE_TOL,
        best_observed=best, gap=gap, violations=violations,
    )


# ---------------------------------------------------------------------------
# random instances

def random_spec(rng: np.random.Generator, n: int, income_scale: float = 5.0):
    """Random valid model: strictly positive rows, so absorption is certain
    and every absorption probability is strictly positive."""
    from tuning import ChainSpec

    rows = rng.dirichlet(np.ones(n + 2), size=n)
    return ChainSpec(
        n_internal=n,
        p00=rows[:, 2:],
        p01=rows[:, :2],
        c=rng.uniform(-income_scale, income_scale, size=n),
        d0=rng.uniform(-income_scale, 0.0, size=n),
        d1=rng.uniform(-income_scale, 0.0, size=n),
    )


def ill_conditioned_specs(rng: np.random.Generator, count: int):
    """Models near the edge of the float solve, one at a time.

    Four in five have n in 1..4, the rest n in 5..60. A random share of
    rows has its boundary mass p01 scaled by 1e-9..1e-15 and is then
    renormalized, so absorption takes up to ~1e15 steps; incomes are scaled
    by 10**U(0, 308) or, half the time, 10**U(300, 308.25), up to ~1.8e308.
    """
    from tuning import ChainSpec

    for _ in range(count):
        n = int(rng.integers(1, 5)) if rng.random() < 0.8 else int(rng.integers(5, 61))
        rows = rng.dirichlet(np.ones(n + 2), size=n)
        scaled = rng.random(n) < rng.random()
        rows[scaled, :2] *= 10.0 ** -rng.uniform(9.0, 15.0, size=(int(scaled.sum()), 1))
        rows /= rows.sum(axis=1, keepdims=True)
        exponent = rng.uniform(0.0, 308.0) if rng.random() < 0.5 else rng.uniform(300.0, 308.25)
        yield ChainSpec(
            n_internal=n,
            p00=rows[:, 2:],
            p01=rows[:, :2],
            c=rng.uniform(-1.0, 1.0, size=n) * 10.0**exponent,
            d0=-np.ones(n),
            d1=-np.ones(n),
        )


def random_strategy(rng: np.random.Generator, n: int):
    from tuning import Strategy

    return Strategy(alpha0=rng.dirichlet(np.ones(n)), alpha1=rng.dirichlet(np.ones(n)))


# ---------------------------------------------------------------------------
# reachability

def boundary_unreachable(p00, p01) -> list[int]:
    """Labels of the internal states with no path of positive entries to the
    boundary: a breadth-first search backwards from the states that enter
    the boundary directly, over each state's list of predecessors."""
    n = len(p00)
    predecessors = [[i for i in range(n) if p00[i][j] > 0.0] for j in range(n)]
    queue = deque(i for i in range(n) if p01[i][0] > 0.0 or p01[i][1] > 0.0)
    reached = set(queue)
    while queue:
        for i in predecessors[queue.popleft()]:
            if i not in reached:
                reached.add(i)
                queue.append(i)
    return [i + 2 for i in range(n) if i not in reached]
