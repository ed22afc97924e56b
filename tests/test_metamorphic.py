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
- Simulation: scaling c, d0 and d1 by 8 scales ``i_hat`` and
  ``std_error`` by 8 bit for bit and keeps the counts, since no draw
  depends on an income and a power of two scales every sum exactly.

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

The pair check allows for ties. The lexicographic tie-break is not
invariant under relabeling, so the transformed solve's pair, mapped back,
must have an entry in the original table equal to the optimum within
PAIR_TOL times the reward scale, not be the same pair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuning import ChainSpec, Strategy, analyze_chain, cost_coefficients, indicator, simulate, solve_tuning
from tuning.stationary import ROUTES

from oracles import random_spec, random_strategy
from strats import spec_strategy_pairs

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


def relation_errors(spec: ChainSpec, strategy, moves: dict) -> dict:
    """Per relation of ``moves``, relative to the reward scale: the largest
    value error of the solves in both directions, that of the three routes
    on ``strategy``, and how far the transformed optima's pairs, mapped
    back, are from the optimum in the original table."""
    table = cost_coefficients(spec, analyze_chain(spec)).c_table
    errors = {}
    for name, (moved, back, move, shift) in moves.items():
        solve, routes, pair = 0.0, 0.0, 0.0
        for direction in DIRECTIONS:
            control, other = solve_tuning(spec, direction), solve_tuning(moved, direction)
            solve = max(solve, abs(other.value - (control.value + shift)))
            m0, m1 = back(other.m0_star, other.m1_star)
            pair = max(pair, abs(table[m0 - 2, m1 - 2] - control.value))
        moved_strategy = Strategy(*move(strategy.alpha0, strategy.alpha1))
        for route in ROUTES:
            expected = indicator(strategy, spec, analyze_chain(spec), route) + shift
            routes = max(routes, abs(indicator(moved_strategy, moved, analyze_chain(moved), route) - expected))
        scale = reward_scale(spec, moved) or 1.0  # an all-zero model: absolute errors
        errors[name] = (solve / scale, routes / scale, pair / scale)
    return errors


def assert_relations_hold(spec: ChainSpec, strategy, moves: dict) -> None:
    for name, (solve, routes, pair) in relation_errors(spec, strategy, moves).items():
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


class TestSolveAndRoutes:
    @settings(max_examples=60, deadline=None)
    @given(pair=spec_strategy_pairs(), data=st.data())
    def test_relations_hold_on_generated_models(self, pair, data):
        spec, strategy = pair
        perm = np.array(data.draw(st.permutations(range(spec.n_internal))), dtype=np.intp)
        assert_relations_hold(spec, strategy, relations(spec, perm))
        assert_relabel_permutes_tables(spec, perm)

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
    def test_scaling_incomes_by_eight_scales_the_estimate_exactly(self, pair, seed):
        spec, strategy = pair
        scaled = ChainSpec(spec.n_internal, spec.p00, spec.p01, 8 * spec.c, 8 * spec.d0, 8 * spec.d1)
        stats = simulate(spec, strategy, 300, seed)
        other = simulate(scaled, strategy, 300, seed)
        assert (other.i_hat, other.std_error) == (8 * stats.i_hat, 8 * stats.std_error)
        assert (other.cycles, other.boundary_counts) == (stats.cycles, stats.boundary_counts)
