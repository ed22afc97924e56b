"""Exact solution of the tuning problem and randomized refutation.

The long-run average income, viewed as a function of the strategy pair,
is a ratio of two bilinear forms, so its extrema over the product of
probability simplices are attained at vertices: deterministic policies
that always restart at a fixed internal state from each boundary side.

Watched at boundary hits, such a policy is a two-state average-reward
decision process: the state is the boundary i, the action the restart
label l, the reward g_i[l] = d_i[l] + r[l] and the transition b[l, :].
Howard's policy iteration finds its optimal pair in O(n) per step. For
any scalar h and

    q0[l] = g0[l] + b[l, 1] * h,    q1[l] = g1[l] - b[l, 0] * h,

the value of every pair is a convex combination of its q-values,

    c_table[m0, m1] = mu0 * q0[m0] + mu1 * q1[m1],
    (mu0, mu1) = (b[m1, 0], b[m0, 1]) / (b[m0, 1] + b[m1, 0]),

so a pair whose q-values are both maximal is optimal. The n x n ratio
table is never built on the solve path; it stays available as
``cost_coefficients(spec, analyze_chain(spec)).c_table`` and through
``tuning table``, the oracle the tests scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .absorption import analyze_chain, check_positivity
from .errors import NumericOverflowError, PositivityError
from .model import ChainSpec, _check_count, _check_label
from .stationary import _ratio, _rewards
from .stationary import cost_coefficients  # noqa: F401 - perfbench patches this name here

SIGNS = {"maximize": 1.0, "minimize": -1.0}
DIRECTIONS = tuple(SIGNS)
DOMINANCE_TOL = 1e-9
# rounding allowance of the candidate window, in units of machine epsilon
# times max|g| + |h|: a first-order error analysis of the q-values (2 each)
# and the table entries (4 each) needs 14
ROUNDOFF_ULPS = 16.0
CHUNK_ELEMENTS = 2**17  # doubles in refutation's reused draw buffer (1 MiB)
TARGET_LABELS = 4  # labels per side of refutation's targeted half


@dataclass(frozen=True)
class OptimalControl:
    """Best deterministic policy: the direction, restart labels and value."""

    direction: str
    m0_star: int
    m1_star: int
    value: float


@dataclass(frozen=True)
class RefutationReport:
    """Outcome of a randomized search for a strategy beating the optimum.

    ``gap`` measures how far the best random strategy stayed inside the
    optimum (nonnegative up to roundoff); ``violations`` counts samples
    beyond the optimum by more than ``tolerance * max(1, |value|)``, a
    tolerance relative to the optimum's size, so that a last-digit rounding
    near the float limit is no violation. ``tolerance`` is always
    ``DOMINANCE_TOL``. Both are None/0 when no samples were drawn.
    """

    samples: int
    seed: int
    tolerance: float
    best_observed: float | None
    gap: float | None
    violations: int


def _sign(direction: str) -> float:
    """+1.0 to maximize, -1.0 to minimize; ValueError for any other direction."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}, expected one of {DIRECTIONS}")
    return SIGNS[direction]


def _improve(g0, g1, b0, b1, m0: int, m1: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The h that makes pair (m0, m1)'s two q-values equal its value, and
    the q-values q0 and q1 of every label under that h."""
    h = (g1[m1] - g0[m0]) / (b1[m0] + b0[m1])
    return h, g0 + b1 * h, g1 - b0 * h


def _frame(s: float, g0, g1) -> tuple[np.ndarray, np.ndarray, int]:
    """s * g0 and s * g1 times 2^-e, each below 1 in size, and e, the exponent
    of max|g|: the solver's and the refutation's frame, in which every table
    entry is the raw one times s 2^-e, exactly outside the subnormal range."""
    e = np.frexp(max(np.max(np.abs(g0)), np.max(np.abs(g1))))[1]
    return np.ldexp(s * g0, -e), np.ldexp(s * g1, -e), e


def _policy_iteration(g0, g1, b0, b1) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Maximize the pair value; return the value, h and q-values of the last pair.

    Each step sets h so that the current pair's two q-values equal its
    value, then moves each boundary to its best q-value. A step is taken
    only while the value strictly increases, which bounds the number of
    steps in floating point as in exact arithmetic.
    """
    m0, m1 = int(np.argmax(g0)), int(np.argmax(g1))
    value = _ratio(g0[m0], g1[m1], b0[m1], b1[m0])
    while True:
        h, q0, q1 = _improve(g0, g1, b0, b1, m0, m1)
        n0, n1 = int(np.argmax(q0)), int(np.argmax(q1))
        improved = _ratio(g0[n0], g1[n1], b0[n1], b1[n0])
        if not improved > value:
            return value, h, q0, q1
        m0, m1, value = n0, n1, improved


def _candidates(g0, g1, b0, b1) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns holding every pair whose table entry can reach the
    maximum in floating point.

    With top = max(q0, q1, value) and the convex-combination identity,
    a pair within eps of the best value has mu0 * (top - q0[m0]) <= top -
    value + eps, and mu0 >= min b0 / (max b1 + min b0); likewise for m1.
    The slack covers the rounding in the q-values and in the entries.
    """
    value, h, q0, q1 = _policy_iteration(g0, g1, b0, b1)
    slack = ROUNDOFF_ULPS * np.finfo(float).eps * (max(np.max(np.abs(g0)), np.max(np.abs(g1))) + abs(h))
    top = max(value, np.max(q0), np.max(q1))
    gap = top - value + slack
    mu0 = np.min(b0) / (np.max(b1) + np.min(b0))
    mu1 = np.min(b1) / (np.max(b0) + np.min(b1))
    rows = np.flatnonzero(q0 >= top - gap / mu0 - slack)
    cols = np.flatnonzero(q1 >= top - gap / mu1 - slack)
    return rows, cols


def solve_tuning(spec: ChainSpec, direction: str = "maximize") -> OptimalControl:
    """Find the best deterministic pair by policy iteration.

    The pair reported is the one a scan of the full ratio table would
    report: the first entry, in (m0, m1) order, equal to the table's
    extremum, with the table entry as its value. Policy iteration narrows
    the scan to the few rows and columns that can hold that entry.
    Strict positivity of the absorption probabilities is checked first
    and a PositivityError raised if it fails.
    """
    s = _sign(direction)
    _check_count("n_internal", spec.n_internal, 1)  # a state to restart at
    analysis = analyze_chain(spec)
    positivity = check_positivity(analysis)
    if not positivity.ok:
        first = positivity.errors[0]
        raise PositivityError(
            f"{len(positivity.errors)} absorption probabilities are not strictly "
            f"positive, e.g. {first.message}"
        )
    g0, g1 = _rewards(spec, analysis)
    b0, b1 = analysis.b[:, 0], analysis.b[:, 1]
    f0, f1, _ = _frame(s, g0, g1)  # an underflow there is below the slack
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols = _candidates(f0, f1, b0, b1)
        block = _ratio(g0[rows, None], g1[None, cols], b0[None, cols], b1[rows, None])
    # np.argmax returns the first flat index, which is lexicographic in
    # (row, column) order, within the block as in the full table; it picks a
    # NaN entry first, so only a non-finite choice fails, not a finite
    # extremum beside an overflowed entry
    flat = int(np.argmax(s * block)) if block.size else None
    if flat is None or not np.isfinite(block.flat[flat]):
        raise NumericOverflowError("a candidate table entry overflowed the float range")
    i0, i1 = divmod(flat, cols.size)
    return OptimalControl(direction, int(rows[i0]) + 2, int(cols[i1]) + 2, float(block[i0, i1]))


def _uniforms(bit_generator, size: int) -> np.ndarray:
    """``size`` float32 uniforms (2k + 1) 2^-24 in (0, 1), k the top 23 bits
    of each 32-bit half of the raw words, low half first on every platform:
    k | 0x3F800000 is the float32 1 + k 2^-23, less 1 - 2^-24 exactly (Sterbenz)."""
    halves = bit_generator.random_raw(-(-size // 2)).astype("<u8", copy=False).view("<u4")
    halves >>= 9
    halves |= 0x3F800000
    uniforms = halves.view("<f4")[:size]
    uniforms -= np.float32(1 - 2**-24)
    return uniforms


def _simplex_dots(rng: np.random.Generator, u, v, out_u: np.ndarray, out_v: np.ndarray) -> None:
    """Store alpha @ u and alpha @ v for a flat-Dirichlet alpha per entry.

    Rows x of negated standard exponentials, float32 logs of ``_uniforms``
    (finite and negative, so no row sums to 0), fill one float64 buffer of
    CHUNK_ELEMENTS // n rows, at least 8 (a fixed count starves small n)
    and a multiple of 8 (no chunk but the last leaves half a word unread).
    alpha is x / x.sum(), where the signs cancel, but only each row's
    products x @ [u, v, 1] are divided; |x| < 17, so with u and v at most
    1 in size, as in the solver's frame, none of them overflows. For n = 1
    the simplex is the point alpha = [1], stored exactly with no draw,
    where (x * u) / x would round. Writes nothing but ``out_u`` and
    ``out_v``, so calls on distinct outputs may run in parallel threads.
    """
    n, samples = len(u), len(out_u)
    if n == 1:
        out_u.fill(u[0])
        out_v.fill(v[0])
        return
    rows = max(8, CHUNK_ELEMENTS // n // 8 * 8)
    buf = np.empty((min(rows, samples), n))
    w = np.column_stack([u, v, np.ones(n)])
    for start in range(0, samples, rows):
        x = buf[: min(rows, samples - start)]
        np.log(_uniforms(rng.bit_generator, x.size), out=x.reshape(-1))
        dots = x @ w
        pair = dots[:, :2] / dots[:, 2:]
        out_u[start : start + len(x)], out_v[start : start + len(x)] = pair.T


def refute_with_random_strategies(
    spec: ChainSpec,
    control: OptimalControl,
    samples: int,
    seed: int,
) -> RefutationReport:
    """Try to beat a claimed optimum with random strategies.

    Draws ``samples`` independent strategy pairs, evaluates the long-run
    income of every pair, and reports anything beyond ``control.value`` by
    more than DOMINANCE_TOL * max(1, |control.value|). Values are drawn in
    solve_tuning's frame (``_frame``) and scaled back by 2^e once, both exact
    outside the subnormal range, so the report is the raw frame's. Side i draws
    alpha_i from float32 exponentials: the first ``samples - samples // 2``
    flat on the simplex from the stream SeedSequence(seed, spawn_key=(i,)),
    the rest flat on the TARGET_LABELS labels with the claimed pair's best
    q-values (the solver's policy-improvement step, which finds a better
    pair there if there is one) from spawn_key=(i + 2,). Side 1 runs in a
    side thread while side 0 runs on the calling thread, each in ~1 MiB
    chunks, so memory is O(samples). Each side writes only its own outputs,
    so the report for fixed arguments is the same whatever the thread
    scheduling, on numpy's AVX2 and AVX-512 loops alike. An exception of
    either side is raised once both have finished, the calling thread's first.
    """
    _check_count("samples", samples, 0)
    _check_count("seed", seed, 0)
    _check_count("n_internal", spec.n_internal, 1)  # a state to restart at
    s = _sign(control.direction)
    if not np.isfinite(control.value):
        raise ValueError(f"control value must be finite, got {control.value!r}")
    _check_label("m0_star", control.m0_star, spec.n_internal)
    _check_label("m1_star", control.m1_star, spec.n_internal)
    if samples == 0:
        return RefutationReport(int(samples), int(seed), DOMINANCE_TOL, None, None, 0)
    analysis = analyze_chain(spec)
    g0, g1, e = _frame(s, *_rewards(spec, analysis))
    b0, b1 = analysis.b[:, 0], analysis.b[:, 1]
    # the ranking only picks labels to draw on, so a non-finite q-value (the
    # claimed pair's b1[m0] + b0[m1] is 0) costs power, not correctness; a
    # stable sort of -q puts the lower label first among ties
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, q0, q1 = _improve(g0, g1, b0, b1, control.m0_star - 2, control.m1_star - 2)
        top0, top1 = (np.argsort(-q, kind="stable")[:TARGET_LABELS] for q in (q0, q1))
    rho0, to1, rho1, to0 = (np.empty(samples) for _ in range(4))  # before any draw: fail at once
    # side i: alpha_i @ g_i into rho_i and alpha_i @ b[:, 1 - i] into to_(1 - i)
    sides = ((g0, b1, top0, rho0, to1), (g1, b0, top1, rho1, to0))
    flat = samples - samples // 2

    def draw(side: int) -> None:
        g, b, top, rho, to = sides[side]
        for key, labels, part in ((side, slice(None), slice(flat)), (side + 2, top, slice(flat, None))):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))
            _simplex_dots(rng, g[labels], b[labels], rho[part], to[part])

    # imported here: concurrent.futures loads logging, which no other command needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="refute-alpha1") as pool:
        side1 = pool.submit(draw, 1)
        draw(0)  # an exception here leaves the block, which joins side 1 first
    side1.result()
    with np.errstate(over="ignore"):
        values = np.ldexp(_ratio(rho0, rho1, to0, to1), e)
        # may round to inf within DOMINANCE_TOL of the float limit, where no
        # finite value is a violation
        bound = s * control.value + DOMINANCE_TOL * max(1.0, abs(control.value))
    best = float(np.max(values))  # in the maximize frame
    violations = int((values > bound).sum())
    # + 0.0 turns the -0.0 that minimizing makes of a zero into 0.0 and leaves every other value
    gap = s * control.value - best + 0.0
    # a sample at -inf is far from the claim: only what is printed must be finite
    if not (np.isfinite(best) and np.isfinite(gap)):
        raise NumericOverflowError(f"refutation best {s * best!r} or gap {gap!r} overflowed the float range")
    return RefutationReport(int(samples), int(seed), DOMINANCE_TOL, s * best + 0.0, gap, violations)
