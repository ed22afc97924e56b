"""Metamorphic relations: the answer for a transformed model follows from
the answer for the original, so the whole pipeline is checked at sizes no
exact oracle reaches.

- R1 relabel: permuting the internal states permutes the optimal pair,
  every strategy and the rows and columns of the a, b and c tables, and
  keeps every value.
- R2 swap: swapping the boundary states (the columns of p01, and d0 with
  d1) swaps the optimal pair and the two restart distributions, and keeps
  every value.
- R3 split: giving state k a copy that shares k's row, each of the two
  taking half of the mass that entered k, keeps every value (lumpability:
  Kemeny & Snell 1960). A strategy's mass at k is halved between the
  copies, and the optimal pair maps back through the copy. k is the
  optimal m0 state of each direction, so the split meets the optimum.
- R4 shift: adding 0.5 to every transfer cost adds 0.5 to every value,
  since each cycle pays exactly one transfer, and keeps the pair.
- Simulation: scaling c, d0 and d1 by 8 scales ``total_income`` and
  ``std_error`` by 8 bit for bit and keeps the counts, since no draw
  depends on an income and a power of two scales every sum exactly.
  ``i_hat`` scales bit for bit too wherever it is a normal float; below
  that, the division by the cycle count rounds to a step of 2^-1074.

Errors are measured against the reward scale max|d_i + r| of both models,
the size of the numbers every route rounds. The largest errors over 400
``random_spec`` models (394 with n 1-40 and six with n = 300, seed
20261021), each solved in both directions and evaluated on the three
indicator routes with one random strategy, and over 3000
``spec_strategy_pairs`` examples (models from ``chain_specs``), were:

  relation   solve     routes
  relabel    1.8e-15   1.7e-15
  swap       0         4.3e-16 (the ratio route 0)
  shift      3.7e-16   3.0e-16

One seeded ``random_spec`` model at n = 1500 gave 1.8e-15 (solve) and
1.9e-15 (routes) on relabel, and 0 on swap and shift.

R1's tables and R3 were measured over 400 other ``random_spec`` models
(394 with n 1-40 and six with n = 300, seed 20261022). The relabeled
tables differed from the permuted ones by at most 3.3e-15 (a), 3.6e-15
(b, absolute: its entries lie in [0, 2]) and 1.6e-15 (c). Splitting each
direction's optimal m0 state moved the solve by at most 5.7e-15 and the
routes by 5.9e-15, and every mapped-back pair was optimal. Over 3000
``spec_strategy_pairs`` examples the tables differed by at most 8.8e-16.

TOL and TABLE_TOL allow about five times as much, except that a swapped
solve must be bit-identical. R3 runs on ``random_spec`` models only: over
``ill_conditioned_specs`` it turns some solves into SINGULAR_SYSTEM (ROADMAP
item 1), and those models must not be narrowed to make it pass.

Over ``one_sided_specs`` and the ``edge_models`` that validate, a solve or
route that raises a TuningError on one side must raise one with the same
code on the other, and the reward scale is floored at the smallest normal
float: below it one rounding is 2^-1074 absolute, and an edge model whose
every income is 5e-324 relabels to values one such step apart. R1 fails on some validated edge models (ROADMAP item 1):
in three random runs of 6000 examples, 18 to 26 of the ~5500 that validate
relabeled to a value off by up to 1e-3 relative (expected absorption time
7e8 to 4e13 steps), three of them to SINGULAR_SYSTEM or, where r nears the
float limit, OVERFLOW on one side only. Swap and shift held on all. The
edge property runs derandomized, as the other ``edge_models`` properties
do, and one model of each failure is pinned as a strict xfail.

The pair check allows for ties. The lexicographic tie-break is not
invariant under relabeling, so the transformed solve's pair, mapped back,
must have an entry in the original table equal to the optimum within
PAIR_TOL times the reward scale, not be the same pair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tuning import (
    ChainSpec, Strategy, TuningError, analyze_chain, cost_coefficients, degenerate_strategy, indicator, simulate,
    solve_tuning, validate_chain,
)
from tuning.stationary import ROUTES

from oracles import random_spec, random_strategy
from strats import edge_models, one_sided_specs, spec_strategy_pairs, strategies_for

TOL = {  # (solve, routes)
    "relabel": (1e-14, 1e-14), "swap": (0.0, 2e-15), "split": (3e-14, 3e-14), "shift": (2e-15, 2e-15),
}
TABLE_TOL = 2e-14
PAIR_TOL = 1e-12
DIRECTIONS = ("maximize", "minimize")


def relations(spec: ChainSpec, perm: np.ndarray) -> dict:
    """Per relation: the transformed model, a map of its pair (m0, m1) back
    to the original's, a map of an original strategy (alpha0, alpha1) to the
    transformed model's and the shift of every value."""
    ix = np.ix_(perm, perm)
    return {
        "relabel": (
            ChainSpec(spec.n_internal, spec.p00[ix], spec.p01[perm], spec.c[perm], spec.d0[perm], spec.d1[perm]),
            lambda m0, m1: (int(perm[m0 - 2]) + 2, int(perm[m1 - 2]) + 2),
            lambda a0, a1: (a0[perm], a1[perm]),
            0.0,
        ),
        "swap": (
            ChainSpec(spec.n_internal, spec.p00, spec.p01[:, ::-1], spec.c, spec.d1, spec.d0),
            lambda m0, m1: (m1, m0),
            lambda a0, a1: (a1, a0),
            0.0,
        ),
        "shift": (
            ChainSpec(spec.n_internal, spec.p00, spec.p01, spec.c, spec.d0 + 0.5, spec.d1 + 0.5),
            lambda m0, m1: (m0, m1),
            lambda a0, a1: (a0, a1),
            0.5,
        ),
    }


def split(spec: ChainSpec, k: int) -> tuple:
    """R3 in the form of one entry of `relations`: state k gets a copy,
    label n + 2, with k's row, and each column of the two holds half of k's."""
    to = np.append(np.arange(spec.n_internal), k)
    half = np.where(to == k, 0.5, 1.0)
    return (
        ChainSpec(spec.n_internal + 1, spec.p00[np.ix_(to, to)] * half, spec.p01[to], spec.c[to], spec.d0[to],
                  spec.d1[to]),
        lambda m0, m1: (int(to[m0 - 2]) + 2, int(to[m1 - 2]) + 2),
        lambda a0, a1: (a0[to] * half, a1[to] * half),
        0.0,
    )


def reward_scale(*specs: ChainSpec) -> float:
    """max|d_i + r| over the models: the size of what each route rounds."""
    return max(float(np.max(np.abs(np.concatenate([s.d0, s.d1]) + np.tile(analyze_chain(s).r, 2)))) for s in specs)


def outcome(call, *args):
    """call(*args), or the code of the TuningError it raises."""
    try:
        return call(*args)
    except TuningError as exc:
        return exc.code


def failed_alike(original, moved, where) -> bool:
    """Whether the original and the moved model's outcomes are both codes,
    after checking that a code on one side is the same code on the other."""
    if isinstance(original, str) or isinstance(moved, str):
        assert original == moved, where
        return True
    return False


def route_value(strategy: Strategy, spec: ChainSpec, route: str) -> float:
    return indicator(strategy, spec, analyze_chain(spec), route)


def relation_errors(spec: ChainSpec, strategy, moves: dict, fail_alike: bool = False) -> dict:
    """Per relation of ``moves``, relative to the reward scale: the largest
    value error of the solves in both directions, that of the three routes
    on ``strategy``, and how far the transformed optima's pairs, mapped
    back, are from the optimum in the original table (the ratio route on
    that degenerate pair gives the table entry's bits). A TuningError
    propagates, unless ``fail_alike``: then a solve or route that fails on
    one model must fail with the same code on the other, and has no error
    to measure, and the scale is at least the smallest normal float, below
    which a rounding error is 2^-1074 absolute, not relative."""
    call = outcome if fail_alike else lambda function, *args: function(*args)
    errors = {}
    for name, (moved, back, move, shift) in moves.items():
        solve, routes, pair = 0.0, 0.0, 0.0
        for direction in DIRECTIONS:
            control, other = call(solve_tuning, spec, direction), call(solve_tuning, moved, direction)
            if failed_alike(control, other, (name, direction)):
                continue
            solve = max(solve, abs(other.value - (control.value + shift)))
            m0, m1 = back(other.m0_star, other.m1_star)
            pair = max(pair, abs(route_value(degenerate_strategy(m0, m1, spec.n_internal), spec, "ratio")
                                 - control.value))
        moved_strategy = Strategy(*move(strategy.alpha0, strategy.alpha1))
        for route in ROUTES:
            expected = call(route_value, strategy, spec, route)
            value = call(route_value, moved_strategy, moved, route)
            if not failed_alike(expected, value, (name, route)):
                routes = max(routes, abs(value - (expected + shift)))
        if not fail_alike:
            scale = reward_scale(spec, moved) or 1.0  # an all-zero model: absolute errors
        elif solve or routes or pair:
            scale = max(np.finfo(float).tiny, reward_scale(spec, moved))
        else:
            scale = 1.0  # every call failed alike, so there may be no r to scale by
        errors[name] = (solve / scale, routes / scale, pair / scale)
    return errors


def assert_relations_hold(spec: ChainSpec, strategy, moves: dict, fail_alike: bool = False) -> None:
    for name, (solve, routes, pair) in relation_errors(spec, strategy, moves, fail_alike).items():
        assert solve <= TOL[name][0], name
        assert routes <= TOL[name][1], name
        assert pair <= PAIR_TOL, name


def assert_relabel_permutes_tables(spec: ChainSpec, perm: np.ndarray) -> None:
    """R1 on the tables: a and c relative to the reward scale, b absolute."""
    moved = relations(spec, perm)["relabel"][0]
    scale = reward_scale(spec, moved) or 1.0
    ix = np.ix_(perm, perm)
    tables = [cost_coefficients(s, analyze_chain(s)) for s in (spec, moved)]
    for name, unit in (("a_table", scale), ("b_table", 1.0), ("c_table", scale)):
        original, relabeled = (getattr(t, name) for t in tables)
        assert np.max(np.abs(relabeled - original[ix])) <= TABLE_TOL * unit, name


# validated models from edge_models on which R1 fails: the answer depends on
# the order of the internal states
_ITEM_1 = "ROADMAP item 1: validate accepts a model whose expected absorption time t is large"
_R1_FAILURES = [
    pytest.param(
        {"n_internal": 2, "p00": [[0.1562045105182964, 0.8437954894817036], [0.7590779677337122, 0.2409220322662365]],
         "p01": [[0.0, 0.0], [3.6240209507991434e-14, 1.505253180070643e-14]],
         "c": [0.0, 1e-13], "d0": [2.0, 0.0], "d1": [2.0, 2.0]},
        [1, 0], id="t_3.7e13_moves_the_value_by_1e-3",
        marks=pytest.mark.xfail(strict=True, reason=_ITEM_1),
    ),
    pytest.param(
        {"n_internal": 2, "p00": [[0.4999999998786785, 0.4999999998786785]] * 2,
         "p01": [[1.4938740840813913e-10, 9.325556920240873e-11]] * 2,
         "c": [5e-324, 2.0], "d0": [-1.7e308, 1e20], "d1": [-1.7e308, 1e20]},
        [1, 0], id="t_4.1e9_is_singular_in_one_order",
        marks=pytest.mark.xfail(strict=True, reason=_ITEM_1),
    ),
    pytest.param(
        {"n_internal": 3,
         "p00": [[0.10917557936284128, 0.18609523787695073, 0.18827933223682897]] * 2
         + [[0.253106983706136, 0.04592545340598247, 0.39503106697552376]],
         "p01": [[0.25822492526168955, 0.25822492526168955]] * 2 + [[0.15931764124028822, 0.14661885467206942]],
         "c": [1.7e308, -1.7e308, 1e-13], "d0": [-0.0, 1.7e308, 2.0], "d1": [1e300, 1e-13, 0.0]},
        [2, 0, 1], id="r_near_the_float_limit_overflows_in_one_order",
        marks=pytest.mark.xfail(strict=True, reason="the LU solve for r overflows in one elimination order "
                                                    "though every entry of r is below 1.8e308"),
    ),
]


def drawn_relations(spec: ChainSpec, data) -> tuple:
    """A drawn strategy for ``spec`` and its relations under a drawn relabeling."""
    perm = np.array(data.draw(st.permutations(range(spec.n_internal))), dtype=np.intp)
    return data.draw(strategies_for(spec.n_internal)), relations(spec, perm)


class TestSolveAndRoutes:
    @settings(max_examples=60, deadline=None)
    @given(pair=spec_strategy_pairs(), data=st.data())
    def test_relations_hold_on_generated_models(self, pair, data):
        spec, strategy = pair
        perm = np.array(data.draw(st.permutations(range(spec.n_internal))), dtype=np.intp)
        assert_relations_hold(spec, strategy, relations(spec, perm))
        assert_relabel_permutes_tables(spec, perm)

    @settings(max_examples=60, deadline=None)
    @given(spec=one_sided_specs(), data=st.data())
    def test_relations_hold_or_fail_alike_on_one_sided_models(self, spec, data):
        assert_relations_hold(spec, *drawn_relations(spec, data), fail_alike=True)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(model=edge_models(), data=st.data())
    def test_relations_hold_or_fail_alike_on_edge_models(self, model, data):
        spec = ChainSpec(**model)
        assume(validate_chain(spec).ok)
        assert_relations_hold(spec, *drawn_relations(spec, data), fail_alike=True)

    @pytest.mark.parametrize("model, perm", _R1_FAILURES)
    def test_relabel_holds_on_validated_edge_models(self, model, perm):
        spec = ChainSpec(**model)
        uniform = np.full(spec.n_internal, 1 / spec.n_internal)
        if validate_chain(spec).ok:
            assert_relations_hold(spec, Strategy(uniform, uniform), relations(spec, np.array(perm)), fail_alike=True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relations_hold_at_n_300(self, seed):
        rng = np.random.default_rng(seed)
        spec, perm = random_spec(rng, 300), rng.permutation(300)
        assert_relations_hold(spec, random_strategy(rng, 300), relations(spec, perm))
        assert_relabel_permutes_tables(spec, perm)

    def test_relations_hold_at_n_1500(self):
        rng = np.random.default_rng(3)
        spec, perm = random_spec(rng, 1500), rng.permutation(1500)
        assert_relations_hold(spec, random_strategy(rng, 1500), relations(spec, perm))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_splitting_the_optimal_m0_state_keeps_the_optimum(self, n, seed):
        rng = np.random.default_rng(seed)
        spec, strategy = random_spec(rng, n), random_strategy(rng, n)
        for direction in DIRECTIONS:
            assert_relations_hold(spec, strategy, {"split": split(spec, solve_tuning(spec, direction).m0_star - 2)})


class TestSimulation:
    @settings(max_examples=30, deadline=None)
    @given(pair=spec_strategy_pairs(), seed=st.integers(0, 2**32 - 1))
    @example(pair=(ChainSpec(1, [[1 / 3]], [[1 / 3, 1 / 3]], [0.0], [0.0], [5e-324]), Strategy([1.0], [1.0])), seed=0)
    def test_scaling_incomes_by_eight_scales_the_estimate_exactly(self, pair, seed):
        spec, strategy = pair
        scaled = ChainSpec(spec.n_internal, spec.p00, spec.p01, 8 * spec.c, 8 * spec.d0, 8 * spec.d1)
        stats = simulate(spec, strategy, 300, seed)
        other = simulate(scaled, strategy, 300, seed)
        assert (other.total_income, other.std_error) == (8 * stats.total_income, 8 * stats.std_error)
        if abs(stats.i_hat) >= np.finfo(float).tiny:  # below it, total / cycles rounds to a step of 2^-1074
            assert other.i_hat == 8 * stats.i_hat
        assert (other.cycles, other.boundary_counts) == (stats.cycles, stats.boundary_counts)
