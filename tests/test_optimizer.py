from __future__ import annotations

import dataclasses
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import tuning.optimizer
from tuning import (
    ChainSpec,
    NumericOverflowError,
    OptimalControl,
    PositivityError,
    TuningError,
    analyze_chain,
    cost_coefficients,
    degenerate_strategy,
    indicator,
    refute_with_random_strategies,
    solve_tuning,
)

from conftest import OVERFLOW_REWARD, OVERFLOW_TABLE, child_env
from oracles import exact_tables, full_matrix_refutation, random_spec
from strats import chain_specs, edge_models


def c_table(spec):
    """The full ratio table, the oracle the solver's narrowed scan must match."""
    return cost_coefficients(spec, analyze_chain(spec)).c_table


def assert_matches_table_scan(spec, direction):
    """The solver's pair and value are the full table scan's, bitwise."""
    control = solve_tuning(spec, direction)
    table = c_table(spec)
    flat = int(np.argmax(table) if direction == "maximize" else np.argmin(table))
    i, j = divmod(flat, spec.n_internal)
    assert (control.m0_star, control.m1_star) == (i + 2, j + 2)
    assert control.value == table[i, j]


def duplicated_states(spec, copies):
    """A chain whose state k copies state copies[k] of ``spec``, its internal
    mass spread over the copies: equal rows give b and r equal up to
    roundoff, so exact and near ties in the table."""
    block = spec.p00[np.ix_(copies, copies)]
    return ChainSpec(
        n_internal=len(copies),
        p00=block * (spec.p00.sum(axis=1)[copies] / block.sum(axis=1))[:, None],
        p01=spec.p01[copies],
        c=spec.c[copies],
        d0=spec.d0[copies],
        d1=spec.d1[copies],
    )


class TestSolveTuning:
    def test_reference_maximum(self, reference_spec):
        control = solve_tuning(reference_spec, "maximize")
        assert (control.m0_star, control.m1_star) == (3, 3)
        assert abs(control.value - 43 / 15) <= 1e-12
        assert control.direction == "maximize"

    @pytest.mark.parametrize("model", [OVERFLOW_REWARD, OVERFLOW_TABLE], ids=["reward", "table"])
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_overflow_raises(self, model, direction):
        spec = ChainSpec(**model)
        if model is OVERFLOW_TABLE and direction == "minimize":
            # only the (2, 3) entry overflows, and the minimum is not there
            control = solve_tuning(spec, direction)
            assert (control.m0_star, control.m1_star, control.value) == (3, 2, 1.4999999999999998e308)
        else:
            with pytest.raises(NumericOverflowError):
                solve_tuning(spec, direction)

    def test_reference_minimum(self, reference_spec):
        control = solve_tuning(reference_spec, "minimize")
        assert (control.m0_star, control.m1_star) == (2, 2)
        assert abs(control.value - 19 / 10) <= 1e-12

    def test_value_is_table_entry(self, reference_spec):
        control = solve_tuning(reference_spec)
        assert control.value == c_table(reference_spec)[control.m0_star - 2, control.m1_star - 2]

    def test_matches_exact_rational_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            spec = random_spec(rng, int(rng.integers(1, 6)))
            control = solve_tuning(spec, "maximize")
            _, _, c_t = exact_tables(spec)
            exact_best = max(
                (float(c_t[i][j]), i, j)
                for i in range(spec.n_internal)
                for j in range(spec.n_internal)
            )
            assert abs(control.value - exact_best[0]) <= 1e-11 * max(1.0, abs(exact_best[0]))

    def test_tie_breaks_lexicographically(self):
        # symmetric model: every policy has the same value
        spec = ChainSpec(
            n_internal=2,
            p00=np.zeros((2, 2)),
            p01=[[0.5, 0.5], [0.5, 0.5]],
            c=[1.0, 1.0],
            d0=[-0.5, -0.5],
            d1=[-0.5, -0.5],
        )
        control = solve_tuning(spec, "maximize")
        assert (control.m0_star, control.m1_star) == (2, 2)
        assert np.max(np.abs(c_table(spec) - control.value)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(spec=chain_specs())
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_policy_iteration_equals_table_scan(self, spec, direction):
        assert_matches_table_scan(spec, direction)

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_duplicated_states_tie_like_the_table_scan(self, direction):
        rng = np.random.default_rng(21)
        for _ in range(20):
            base = random_spec(rng, int(rng.integers(1, 8)))
            copies = rng.integers(0, base.n_internal, size=int(rng.integers(2, 12)))
            assert_matches_table_scan(duplicated_states(base, copies), direction)

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_constant_table_picks_first_pair(self, direction):
        n = 7
        spec = ChainSpec(
            n_internal=n,
            p00=np.zeros((n, n)),
            p01=np.full((n, 2), 0.5),
            c=np.ones(n),
            d0=np.full(n, -0.5),
            d1=np.full(n, -0.5),
        )
        control = solve_tuning(spec, direction)
        assert (control.m0_star, control.m1_star) == (2, 2)
        assert_matches_table_scan(spec, direction)

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("power", [-40, -3, 5, 60])
    def test_power_of_two_scaled_costs_match_table_scan(self, direction, power):
        rng = np.random.default_rng(power + 100)
        for _ in range(5):
            base = random_spec(rng, int(rng.integers(2, 9)))
            scaled = ChainSpec(
                n_internal=base.n_internal,
                p00=base.p00,
                p01=base.p01,
                c=base.c,
                d0=2.0**power * base.d0,
                d1=2.0**power * base.d1,
            )
            assert_matches_table_scan(scaled, direction)

    @settings(max_examples=60, deadline=None)
    @given(spec=chain_specs(max_internal=4), data=st.data())
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_huge_opposite_sign_costs_match_table_scan(self, spec, data, direction):
        # the q-value step h = (g1[m1] - g0[m0]) / (b1[m0] + b0[m1]) can
        # overflow where no table entry does
        n = spec.n_internal
        costs = st.lists(st.floats(min_value=0.0, max_value=1.6e308), min_size=n, max_size=n)
        d0, d1 = -np.array(data.draw(costs)), np.array(data.draw(costs))
        huge = dataclasses.replace(spec, c=np.zeros(n), d0=d0, d1=d1)
        try:
            c_table(huge)
        except NumericOverflowError:
            return  # a table entry overflows, and so may the scan's pick
        assert_matches_table_scan(huge, direction)

    def test_unknown_direction(self, reference_spec):
        with pytest.raises(ValueError, match="direction"):
            solve_tuning(reference_spec, "sideways")

    def test_positivity_enforced(self):
        spec = ChainSpec(
            n_internal=1, p00=[[0.0]], p01=[[1.0, 0.0]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        with pytest.raises(PositivityError):
            solve_tuning(spec)

    def test_deterministic(self, reference_spec):
        first = solve_tuning(reference_spec)
        second = solve_tuning(reference_spec)
        assert (first.m0_star, first.m1_star, first.value) == (
            second.m0_star,
            second.m1_star,
            second.value,
        )

    @settings(max_examples=40, deadline=None)
    @given(spec=chain_specs())
    def test_extremum_dominates_every_table_entry(self, spec):
        control = solve_tuning(spec, "maximize")
        assert control.value == c_table(spec).max()
        low = solve_tuning(spec, "minimize")
        assert low.value == c_table(spec).min()

    @settings(max_examples=30, deadline=None)
    @given(spec=chain_specs())
    def test_optimum_reproduced_by_indicator(self, spec):
        control = solve_tuning(spec, "maximize")
        strategy = degenerate_strategy(control.m0_star, control.m1_star, spec.n_internal)
        value = indicator(strategy, spec, analyze_chain(spec))
        assert abs(value - control.value) <= 1e-12 * max(1.0, abs(control.value))

    def test_scaling_covariance_is_exact_for_power_of_two(self, reference_spec):
        scale = 4.0
        scaled = ChainSpec(
            n_internal=reference_spec.n_internal,
            p00=reference_spec.p00,
            p01=reference_spec.p01,
            c=scale * reference_spec.c,
            d0=scale * reference_spec.d0,
            d1=scale * reference_spec.d1,
        )
        base = solve_tuning(reference_spec, "maximize")
        lifted = solve_tuning(scaled, "maximize")
        assert (lifted.m0_star, lifted.m1_star) == (base.m0_star, base.m1_star)
        assert lifted.value == scale * base.value
        assert np.array_equal(c_table(scaled), scale * c_table(reference_spec))


class TestRefutation:
    def test_reference_not_refuted(self, reference_spec):
        control = solve_tuning(reference_spec, "maximize")
        report = refute_with_random_strategies(reference_spec, control, 5_000, seed=3)
        assert report.violations == 0
        assert report.best_observed <= control.value + 1e-9
        assert report.gap >= -1e-9

    def test_minimize_direction(self, reference_spec):
        control = solve_tuning(reference_spec, "minimize")
        report = refute_with_random_strategies(reference_spec, control, 5_000, seed=3)
        assert report.violations == 0
        assert report.best_observed >= control.value - 1e-9

    def test_zero_samples_is_vacuous(self, reference_spec):
        control = solve_tuning(reference_spec)
        report = refute_with_random_strategies(reference_spec, control, 0, seed=3)
        assert report.samples == 0
        assert report.best_observed is None
        assert report.gap is None
        assert report.violations == 0

    def test_rewards_near_the_float_limit_are_refuted_in_range(self):
        # every sampled value is a mean of rewards of at most 1.7e308, but on
        # the raw rewards its arithmetic overflowed; in the solver's frame none does
        spec = ChainSpec(**{**OVERFLOW_TABLE, "d1": [1.5e308, 1.7e308]})
        control = solve_tuning(spec, "minimize")
        assert control.value == 1.4999999999999998e308
        report = refute_with_random_strategies(spec, control, 50, seed=1)
        assert np.isfinite(report.best_observed) and np.isfinite(report.gap)
        assert report.violations == 0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        model=edge_models(),
        direction=st.sampled_from(tuning.optimizer.DIRECTIONS),
        seed=st.integers(0, 2**32),
        samples=st.sampled_from([1, 7, 200]),
    )
    def test_every_solved_edge_model_is_refuted_in_range(self, model, direction, seed, samples):
        spec = ChainSpec(**model)
        try:
            control = solve_tuning(spec, direction)
        except TuningError:
            return
        try:
            report = refute_with_random_strategies(spec, control, samples, seed)
        except NumericOverflowError:
            return  # what it would print left the float range, never a non-finite field
        assert np.isfinite(report.best_observed) and np.isfinite(report.gap)
        assert report.violations == 0

    def test_single_state_gap_is_exactly_zero(self):
        spec = ChainSpec(
            n_internal=1, p00=[[0.2]], p01=[[0.3, 0.5]], c=[1.0], d0=[-0.5], d1=[-0.25]
        )
        control = solve_tuning(spec)
        report = refute_with_random_strategies(spec, control, 1_000, seed=9)
        # only one strategy exists, so every sample reproduces the optimum
        assert report.gap == 0.0
        assert report.violations == 0

    def test_deterministic_given_seed(self, reference_spec):
        control = solve_tuning(reference_spec)
        first = refute_with_random_strategies(reference_spec, control, 2_000, seed=101)
        second = refute_with_random_strategies(reference_spec, control, 2_000, seed=101)
        assert first == second

    def test_no_internal_state_is_rejected_by_name(self):
        # the library accepts the spec; validate_chain reports BAD_COUNT for it
        spec = ChainSpec(n_internal=0, p00=np.zeros((0, 0)), p01=np.zeros((0, 2)), c=[], d0=[], d1=[])
        message = "^n_internal must be >= 1, got 0$"
        with pytest.raises(ValueError, match=message):
            solve_tuning(spec)
        with pytest.raises(ValueError, match=message):
            refute_with_random_strategies(spec, OptimalControl("maximize", 2, 2, 1.0), 50, seed=1)

    def test_concurrent_refutations_equal_sequential_ones(self):
        spec = random_spec(np.random.default_rng(300), 300)
        control = solve_tuning(spec)
        samples, seeds = 2_000, [5, 6, 7, 8]  # several chunks per stream
        serial = [refute_with_random_strategies(spec, control, samples, seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                futures = [pool.submit(refute_with_random_strategies, spec, control, samples, seed) for seed in seeds]
                concurrent = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial

    @pytest.mark.parametrize("caller_fails", [False, True], ids=["side", "both"])
    def test_side_thread_error_is_raised_by_the_caller(self, reference_spec, monkeypatch, caller_fails):
        class StreamFailed(Exception):
            pass

        control = solve_tuning(reference_spec)
        caller, draw, threads = threading.get_ident(), tuning.optimizer._simplex_dots, []

        def fail(*args):
            # the side thread draws alpha1's flat half, then fails on its
            # targeted half; the calling thread fails at once, if at all
            threads.append(threading.get_ident())
            if threads[-1] == caller and caller_fails:
                raise StreamFailed("alpha0")
            if threads[-1] != caller and len(threads) - threads.count(caller) == 2:
                raise StreamFailed("alpha1")
            draw(*args)

        monkeypatch.setattr(tuning.optimizer, "_simplex_dots", fail)
        before = threading.active_count()
        # when both sides fail, the calling thread's own exception is raised
        with pytest.raises(StreamFailed, match="^alpha0$" if caller_fails else "^alpha1$"):
            refute_with_random_strategies(reference_spec, control, 500, seed=2)
        assert threading.active_count() == before
        assert threads.count(caller) == (1 if caller_fails else 2)
        assert len(threads) - threads.count(caller) == 2

    def test_negative_samples_rejected(self, reference_spec):
        control = solve_tuning(reference_spec)
        with pytest.raises(ValueError, match="samples"):
            refute_with_random_strategies(reference_spec, control, -1, seed=0)

    def test_negative_seed_rejected(self, reference_spec):
        control = solve_tuning(reference_spec)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -4$"):
            refute_with_random_strategies(reference_spec, control, 50, seed=-4)

    def test_reuses_the_analysis_of_the_same_spec(self, reference_spec, solves):
        control = solve_tuning(reference_spec)
        reused = refute_with_random_strategies(reference_spec, control, 500, seed=4)
        assert len(solves) == 1
        # an equal model in another object is factorized again, same result
        twin = dataclasses.replace(reference_spec)
        again = refute_with_random_strategies(twin, control, 500, seed=4)
        assert len(solves) == 2
        assert again == reused

    def test_bulk_dominance(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            spec = random_spec(rng, int(rng.integers(1, 6)))
            control = solve_tuning(spec, "maximize")
            report = refute_with_random_strategies(
                spec, control, 2_000, seed=int(rng.integers(0, 2**32))
            )
            assert report.violations == 0

    @pytest.mark.parametrize(
        "control, message",
        [
            (OptimalControl("max", 3, 3, 1.0), r"^unknown direction 'max', expected one of \('maximize', 'minimize'\)$"),
            (OptimalControl("maximize", 3, 3, float("nan")), "^control value must be finite, got nan$"),
            (OptimalControl("minimize", 2, 2, float("-inf")), "^control value must be finite, got -inf$"),
            (OptimalControl("maximize", 1, 3, 1.0), r"^m0_star=1 is not an internal state label \(expected 2\.\.3\)$"),
            (OptimalControl("maximize", 3, 4, 1.0), r"^m1_star=4 is not an internal state label \(expected 2\.\.3\)$"),
            (OptimalControl("maximize", 3, -1, 1.0), r"^m1_star=-1 is not an internal state label \(expected 2\.\.3\)$"),
            (OptimalControl("minimize", 2.0, 3, 1.0), r"^m0_star=2\.0 is not an internal state label \(expected 2\.\.3\)$"),
        ],
        ids=["direction", "nan", "inf", "label-below", "label-above", "label-negative", "label-float"],
    )
    def test_bad_control_rejected_before_any_draw(self, reference_spec, monkeypatch, control, message):
        def no_draw(*args):
            raise AssertionError("drew strategies for a bad control")

        monkeypatch.setattr(tuning.optimizer, "_simplex_dots", no_draw)
        with pytest.raises(ValueError, match=message):
            refute_with_random_strategies(reference_spec, control, 50, seed=1)

    @pytest.mark.parametrize("n", [7, 50, 300])
    def test_a_claim_at_the_tenth_best_pair_is_refuted(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            spec = random_spec(rng, n)
            table = c_table(spec)
            for direction, s in tuning.optimizer.SIGNS.items():
                m0, m1 = divmod(int(np.argsort(-s * table, axis=None, kind="stable")[9]), n)
                claim = OptimalControl(direction, m0 + 2, m1 + 2, float(table[m0, m1]))
                report = refute_with_random_strategies(spec, claim, 2_000, seed=int(rng.integers(2**32)))
                assert report.violations >= 1, (direction, claim)

    @settings(max_examples=60, deadline=None)
    @given(spec=chain_specs())
    def test_no_violation_at_the_true_optimum(self, spec):
        for direction in tuning.optimizer.DIRECTIONS:
            report = refute_with_random_strategies(spec, solve_tuning(spec, direction), 400, seed=spec.n_internal)
            assert report.violations == 0

    @pytest.mark.parametrize(
        "direction, value, best, gap, violations",
        [
            ("maximize", 8.218536582790142, 9.222443727630774, -1.0039071448406318, 377),
            ("minimize", 8.218536582790142, 7.077365818341213, -1.1411707644489288, 624),
        ],
    )
    def test_flat_half_is_the_flat_refutation_of_its_size(self, monkeypatch, direction, value, best, gap, violations):
        # the report of the flat half's 1001 samples, drawn from float32
        # exponentials, pinned bit for bit
        spec = random_spec(np.random.default_rng(50), 50)
        ratio, seen = tuning.optimizer._ratio, []

        def keep_values(*args):
            seen.append(ratio(*args))
            return seen[-1]

        monkeypatch.setattr(tuning.optimizer, "_ratio", keep_values)
        refute_with_random_strategies(spec, OptimalControl(direction, 2, 2, value), 2_001, seed=5)
        s = tuning.optimizer.SIGNS[direction]
        e = tuning.optimizer._frame(s, *tuning.optimizer._rewards(spec, analyze_chain(spec)))[2]
        flat = s * np.ldexp(seen[0][:1_001], e)  # back from the solver's frame the values are drawn in
        assert s * float(np.max(s * flat)) == best
        assert s * value - s * best == gap
        tol = tuning.optimizer.DOMINANCE_TOL * max(1.0, abs(value))
        assert int((s * flat > s * value + tol).sum()) == violations

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_chunked_refutation_matches_full_matrix_draw(self, n):
        rows = max(8, tuning.optimizer.CHUNK_ELEMENTS // n // 8 * 8)
        spec = random_spec(np.random.default_rng(n), n)
        table = c_table(spec)
        for samples in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
            for direction in ("maximize", "minimize"):
                # the optimum, and a value inside the table's range that many samples beat
                optimum = solve_tuning(spec, direction)
                inside = OptimalControl(direction, 2, 2, float((table.min() + table.max()) / 2))
                for control in (optimum, inside):
                    seed = samples + n
                    got = refute_with_random_strategies(spec, control, samples, seed)
                    want = full_matrix_refutation(spec, control, samples, seed)
                    assert got.violations == want.violations
                    # a per-sample value may differ in its last bit, where the
                    # batch's matrix-vector product rounds in another order
                    ulp = np.spacing(max(abs(want.best_observed), abs(control.value)))
                    assert abs(got.best_observed - want.best_observed) <= 4 * ulp
                    assert abs(got.gap - want.gap) <= 4 * ulp

    @pytest.mark.parametrize("n", [2, 300])
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_rewards_near_the_float_limit_stay_finite(self, n, direction):
        # a row of raw exponentials sums to about n, so x @ g on the raw rewards
        # would overflow on many rows although every alpha @ g is at most 1e308
        rewards = np.linspace(1e308, 5e307, n)
        spec = ChainSpec(
            n_internal=n, p00=np.zeros((n, n)), p01=np.full((n, 2), 0.5),
            c=np.zeros(n), d0=rewards, d1=rewards[::-1],
        )
        control = solve_tuning(spec, direction)
        got = refute_with_random_strategies(spec, control, 1_000, seed=n)
        want = full_matrix_refutation(spec, control, 1_000, seed=n)
        assert got.violations == want.violations == 0
        ulp = np.spacing(max(abs(want.best_observed), abs(control.value)))
        assert abs(got.best_observed - want.best_observed) <= 4 * ulp
        assert abs(got.gap - want.gap) <= 4 * ulp

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rounding_at_the_float_limit_is_no_violation(self, seed):
        # every strategy is worth 1e308; a sample one ulp above it (~2e292)
        # is rounding, far inside the relative tolerance
        spec = ChainSpec(
            n_internal=2, p00=np.zeros((2, 2)), p01=np.full((2, 2), 0.5),
            c=np.zeros(2), d0=[1e308, 1e308], d1=[1e308, 1e308],
        )
        control = solve_tuning(spec)
        got = refute_with_random_strategies(spec, control, 100, seed)
        assert got.violations == full_matrix_refutation(spec, control, 100, seed).violations == 0
        assert abs(got.gap) <= 4 * np.spacing(1e308)

    def test_violations_count_beyond_a_tolerance_relative_to_the_value(self):
        # one state: every sample equals the claimed value's pair exactly, so
        # a claim just inside the relative tolerance holds and one outside fails
        spec = ChainSpec(n_internal=1, p00=[[0.2]], p01=[[0.3, 0.5]], c=[1.0], d0=[-5e3], d1=[-2.5e3])
        value = solve_tuning(spec).value
        tol = tuning.optimizer.DOMINANCE_TOL * abs(value)
        inside = refute_with_random_strategies(spec, OptimalControl("maximize", 2, 2, value - 0.5 * tol), 10, 1)
        outside = refute_with_random_strategies(spec, OptimalControl("maximize", 2, 2, value - 2 * tol), 10, 1)
        assert (inside.violations, outside.violations) == (0, 10)
        assert inside.tolerance == outside.tolerance == 1e-9

    def test_traced_memory_is_one_chunk_not_the_sample_matrix(self):
        spec = random_spec(np.random.default_rng(1500), 1500)
        control = solve_tuning(spec)  # factorizes outside the traced call
        tracemalloc.start()
        try:
            refute_with_random_strategies(spec, control, 2_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two (2000, 1500) draws would be ~46 MiB
        assert peak < 10 * 2**20

    def test_traced_memory_per_sample_is_bounded(self):
        # the four per-sample outputs and the ratio's temporaries; an unchunked
        # targeted draw would add a (samples // 2, 4) matrix per side
        spec = random_spec(np.random.default_rng(7), 7)
        control = solve_tuning(spec)
        samples = 1_000_000
        tracemalloc.start()
        try:
            refute_with_random_strategies(spec, control, samples, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * samples

    def test_every_grid_value_is_a_uniform_inside_the_unit_interval(self):
        class Words:
            def __init__(self, halves):
                self.words = halves.astype("<u4").view("<u8")  # halves[2i] is word i's low half

            def random_raw(self, size):
                assert size == len(self.words)
                return self.words.copy()

        junk = np.random.default_rng(23)
        block = 2**20
        for first in range(0, 2**23, block):
            k = np.arange(first, first + block, dtype=np.uint32)
            # each 23-bit k once, over low bits that must not matter
            halves = k << 9 | junk.integers(0, 2**9, block, dtype=np.uint32)
            u = tuning.optimizer._uniforms(Words(halves), block)
            assert u.dtype == np.float32
            assert np.array_equal(u.astype(np.float64), (2.0 * k + 1.0) * 2.0**-24)
            assert 0.0 < u.min() and u.max() < 1.0
            logs = np.log(u)
            assert logs.dtype == np.float32
            assert np.isfinite(logs).all() and (logs < 0.0).all()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_first_draws_are_the_raw_words_low_half_first(self, seed):
        def stream():
            return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,)))

        samples = 5
        halves = [int(word) >> shift & 0xFFFFFFFF for word in stream().random_raw(samples) for shift in (0, 32)]
        # U = (2k + 1) 2^-24 in Python floats, exact, as float32 exact too
        x = np.log(np.array([(2 * (h >> 9) + 1) / 2**24 for h in halves], dtype=np.float32))
        x = x.astype(np.float64).reshape(samples, 2)
        first, second = np.empty(samples), np.empty(samples)
        tuning.optimizer._simplex_dots(np.random.Generator(stream()), np.eye(2)[0], np.eye(2)[1], first, second)
        assert np.array_equal(first, x[:, 0] / (x[:, 0] + x[:, 1]))
        assert np.array_equal(second, x[:, 1] / (x[:, 0] + x[:, 1]))

    def test_draws_are_the_same_without_avx512(self):
        # numpy's float32 log gives the same bits on its AVX2 and AVX-512
        # loops (its SSE-only baseline does not), so capping the dispatch
        # below AVX-512 in a child process changes no sample; on a CPU
        # without AVX-512 both sides run the AVX2 loop
        probe = (
            "import numpy as np\n"
            "from tuning.optimizer import _simplex_dots\n"
            "inputs = np.random.default_rng(300)\n"
            "out = np.empty((2, 1000))\n"
            "_simplex_dots(np.random.Generator(np.random.PCG64(300)), inputs.normal(size=300), inputs.random(300), *out)\n"
        )
        here: dict = {}
        exec(probe, here)
        child = subprocess.run(
            [sys.executable, "-c", probe + "import sys; sys.stdout.write(out.tobytes().hex())"],
            env=child_env(NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"),
            capture_output=True, text=True, timeout=120, check=True,
        )
        there = np.frombuffer(bytes.fromhex(child.stdout)).reshape(2, 1000)
        differ = int((here["out"] != there).any(axis=0).sum())
        assert differ == 0, f"{differ} of 1000 samples differ without AVX-512"

    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_marginal_is_beta_one_n_minus_one(self, n):
        # one coordinate of a flat Dirichlet on n states is Beta(1, n - 1)
        samples = 20_000
        first, second = np.empty(samples), np.empty(samples)
        rng = np.random.Generator(np.random.PCG64(n))
        tuning.optimizer._simplex_dots(rng, np.eye(n)[0], np.eye(n)[1], first, second)
        assert scipy_stats.kstest(first, scipy_stats.beta(1, n - 1).cdf).pvalue > 1e-3
