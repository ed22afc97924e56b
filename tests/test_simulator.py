from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from tuning import (
    ChainSpec,
    CycleLimitError,
    NumericOverflowError,
    Strategy,
    analyze_chain,
    degenerate_strategy,
    indicator,
    sample_trajectory,
    simulate,
    simulate_replicated,
)
from tuning.simulator import _Picker, _run_stream

from conftest import REF_I_STAR, REF_PI
from strats import spec_strategy_pairs


def trajectory_cycles(spec, strategy, cycles, seed):
    """Start boundaries and incomes of the first ``cycles`` completed cycles
    of the sampled path, each income summed in path order."""
    steps = 16 * cycles + 64
    while True:
        starts, incomes, at, acc = [], [], None, None
        for event in sample_trajectory(spec, strategy, steps, seed):
            if event.event_kind == "absorption":
                if acc is not None:
                    starts.append(at)
                    incomes.append(acc)
                at, acc = event.state, None
            elif event.event_kind == "transfer":
                acc = event.income_delta
            elif acc is not None:
                acc += event.income_delta
        if len(incomes) >= cycles:
            return starts[:cycles], incomes[:cycles]
        steps *= 4


@pytest.fixture
def one_state_deterministic():
    # p00 = 0 forces a one-step cycle: transfer, then immediate absorption
    spec = ChainSpec(
        n_internal=1, p00=[[0.0]], p01=[[0.5, 0.5]], c=[5.0], d0=[-1.0], d1=[-1.0]
    )
    return spec, degenerate_strategy(2, 2, 1)


class TestSimulate:
    def test_deterministic_cycle_has_zero_variance(self, one_state_deterministic):
        spec, strategy = one_state_deterministic
        stats = simulate(spec, strategy, cycles=500, seed=0)
        assert stats.i_hat == 4.0
        assert stats.total_income == 4.0 * 500
        assert stats.std_error == 0.0
        assert sum(stats.boundary_counts) == 500

    def test_single_cycle_has_zero_std_error(self, reference_spec):
        stats = simulate(reference_spec, degenerate_strategy(3, 3, 2), cycles=1, seed=4)
        assert stats.cycles == 1
        assert stats.std_error == 0.0
        assert stats.i_hat == stats.total_income

    def test_i_hat_is_total_over_cycles(self, reference_spec):
        stats = simulate(reference_spec, degenerate_strategy(3, 3, 2), cycles=400, seed=8)
        assert stats.i_hat == stats.total_income / stats.cycles

    def test_boundary_counts_sum_to_cycles(self, reference_spec):
        stats = simulate(reference_spec, Strategy([0.5, 0.5], [0.5, 0.5]), 1_000, seed=2)
        assert sum(stats.boundary_counts) == 1_000

    def test_identical_seeds_reproduce_bitwise(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        first = simulate(reference_spec, strategy, cycles=5_000, seed=42)
        second = simulate(reference_spec, strategy, cycles=5_000, seed=42)
        assert first == second

    def test_seed_zero_is_valid_and_differs_from_seed_one(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        a = simulate(reference_spec, strategy, cycles=2_000, seed=0)
        b = simulate(reference_spec, strategy, cycles=2_000, seed=1)
        assert a != b

    def test_ergodic_convergence_smoke(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        value = indicator(strategy, reference_spec, analyze_chain(reference_spec))
        stats = simulate(reference_spec, strategy, cycles=20_000, seed=7)
        assert abs(stats.i_hat - value) <= 4 * stats.std_error

    def test_parameter_validation(self, reference_spec):
        strategy = degenerate_strategy(2, 2, 2)
        with pytest.raises(ValueError, match="cycles"):
            simulate(reference_spec, strategy, cycles=0, seed=0)
        with pytest.raises(ValueError, match="seed"):
            simulate(reference_spec, strategy, cycles=1, seed=-1)
        with pytest.raises(ValueError, match="segment_limit"):
            simulate(reference_spec, strategy, cycles=1, seed=0, segment_limit=0)

    def test_income_overflow_raises(self, one_state_deterministic):
        spec, strategy = one_state_deterministic
        huge = ChainSpec(n_internal=1, p00=spec.p00, p01=spec.p01, c=[1e308], d0=[1e308], d1=[1e308])
        with pytest.raises(NumericOverflowError):
            simulate(huge, strategy, cycles=10, seed=0)
        # a finite total whose scatter overflows is refused as well
        spread = ChainSpec(n_internal=2, p00=[[0.0, 0.0], [0.0, 0.0]], p01=[[0.5, 0.5], [0.5, 0.5]],
                           c=[1e200, -1e200], d0=[0.0, 0.0], d1=[0.0, 0.0])
        with pytest.raises(NumericOverflowError):
            simulate(spread, Strategy([0.5, 0.5], [0.5, 0.5]), cycles=100, seed=0)

    def test_pooled_law_over_seeds(self, reference_spec):
        # 40 independent seeds; the spread of their means gives the pooled
        # standard error without assuming that cycles within a run are iid
        runs = [simulate(reference_spec, degenerate_strategy(3, 3, 2), 10_000, seed) for seed in range(40)]
        means = np.array([r.i_hat for r in runs])
        pooled_se = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(means.mean() - float(REF_I_STAR)) <= 4 * pooled_se
        total = sum(r.cycles for r in runs)
        for j, p in enumerate(float(x) for x in REF_PI):
            freq = sum(r.boundary_counts[j] for r in runs) / total
            assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / total)

    def test_cycle_limit_enforced(self):
        spec = ChainSpec(
            n_internal=1,
            p00=[[0.999999999999]],
            p01=[[5e-13, 5e-13]],
            c=[1.0],
            d0=[-1.0],
            d1=[-1.0],
        )
        with pytest.raises(CycleLimitError):
            simulate(spec, degenerate_strategy(2, 2, 1), cycles=1, seed=1, segment_limit=1_000)


class TestReplications:
    def test_pooling_matches_manual_merge(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        pooled = simulate_replicated(reference_spec, strategy, 1_000, seed=5, replications=3)
        assert pooled.cycles == 3_000

        totals, counts = 0.0, [0, 0]
        for stream in range(3):
            part = _run_stream(reference_spec, strategy, 1_000, 5, stream, 10**9)
            totals += part.total
            counts[0] += part.counts[0]
            counts[1] += part.counts[1]
        assert pooled.total_income == totals
        assert pooled.boundary_counts == tuple(counts)
        assert pooled.i_hat == totals / 3_000

    def test_one_replication_equals_simulate(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        assert simulate_replicated(
            reference_spec, strategy, 2_000, seed=9, replications=1
        ) == simulate(reference_spec, strategy, 2_000, seed=9)

    def test_streams_are_independent(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        a = _run_stream(reference_spec, strategy, 100, 5, 0, 10**9)
        b = _run_stream(reference_spec, strategy, 100, 5, 1, 10**9)
        assert a.total != b.total  # totals from different streams differ

    def test_std_error_shrinks_with_replications(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        one = simulate_replicated(reference_spec, strategy, 2_000, seed=5, replications=1)
        many = simulate_replicated(reference_spec, strategy, 2_000, seed=5, replications=8)
        assert many.std_error < one.std_error


class TestTrajectory:
    def test_starts_at_smallest_internal_label(self, reference_spec):
        events = sample_trajectory(reference_spec, degenerate_strategy(3, 3, 2), 5, seed=0)
        assert events[0].step == 0
        assert events[0].state == 2
        assert events[0].event_kind == "free_move"
        assert events[0].income_delta == reference_spec.c[0]

    def test_alternation_when_absorption_is_immediate(self, one_state_deterministic):
        spec, strategy = one_state_deterministic
        events = sample_trajectory(spec, strategy, 41, seed=3)
        kinds = [e.event_kind for e in events]
        assert kinds[0] == "free_move"
        assert kinds[1] == "absorption"
        # strict alternation afterwards
        for i in range(2, 41):
            assert kinds[i] == ("transfer" if i % 2 == 0 else "absorption")

    def test_absorption_followed_by_supported_transfer(self, reference_spec):
        strategy = degenerate_strategy(3, 2, 2)
        events = sample_trajectory(reference_spec, strategy, 500, seed=6)
        for prev, cur in zip(events, events[1:]):
            if prev.event_kind == "absorption":
                assert cur.event_kind == "transfer"
                alpha = strategy.alpha0 if prev.state == 0 else strategy.alpha1
                assert alpha[cur.state - 2] > 0.0
            if cur.event_kind == "absorption":
                assert cur.state in (0, 1)
                assert cur.income_delta == 0.0

    def test_transfer_income_includes_arrival_state(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        events = sample_trajectory(reference_spec, strategy, 500, seed=6)
        for prev, cur in zip(events, events[1:]):
            if cur.event_kind == "transfer":
                d = reference_spec.d0 if prev.state == 0 else reference_spec.d1
                expected = d[cur.state - 2] + reference_spec.c[cur.state - 2]
                assert cur.income_delta == expected

    def test_slow_chain_is_cut_at_max_steps(self):
        # expected segment length ~1e12: the path ends inside the warm-up
        spec = ChainSpec(
            n_internal=1, p00=[[0.999999999999]], p01=[[5e-13, 5e-13]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        events = sample_trajectory(spec, degenerate_strategy(2, 2, 1), 300, seed=1)
        assert [e.step for e in events] == list(range(300))
        assert {e.event_kind for e in events} == {"free_move"}

    def test_deterministic_given_seed(self, reference_spec):
        strategy = Strategy([0.5, 0.5], [0.5, 0.5])
        first = sample_trajectory(reference_spec, strategy, 200, seed=11)
        second = sample_trajectory(reference_spec, strategy, 200, seed=11)
        assert first == second


class TestAccountingIdentity:
    def test_trajectory_cycles_reproduce_simulate_exactly(self, reference_spec):
        strategy = Strategy([0.25, 0.75], [0.6, 0.4])
        cycles = 60
        stats = simulate(reference_spec, strategy, cycles=cycles, seed=123)
        events = sample_trajectory(reference_spec, strategy, 4_000, seed=123)

        # split events into warm-up and completed cycles
        incomes = []
        acc = None
        for event in events:
            if event.event_kind == "absorption":
                if acc is not None:
                    incomes.append(acc)
                acc = 0.0
            elif acc is not None:
                acc += event.income_delta
        assert len(incomes) >= cycles

        total = 0.0
        for income in incomes[:cycles]:
            total += income
        assert total == stats.total_income

    def test_boundary_counts_match_trajectory(self, reference_spec):
        strategy = Strategy([0.25, 0.75], [0.6, 0.4])
        cycles = 60
        stats = simulate(reference_spec, strategy, cycles=cycles, seed=123)
        events = sample_trajectory(reference_spec, strategy, 4_000, seed=123)
        starts = [e.state for e in events if e.event_kind == "absorption"][:cycles]
        assert stats.boundary_counts == (starts.count(0), starts.count(1))


class TestPathIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        pair=spec_strategy_pairs(max_internal=6),
        seed=st.integers(min_value=0, max_value=2**32),
        cycles=st.integers(min_value=1, max_value=600),
    )
    def test_trajectory_reproduces_simulate(self, pair, seed, cycles):
        spec, strategy = pair
        stats = simulate(spec, strategy, cycles=cycles, seed=seed)
        starts, incomes = trajectory_cycles(spec, strategy, cycles, seed)
        total = 0.0
        for income in incomes:
            total += income
        assert total == stats.total_income
        assert (starts.count(0), starts.count(1)) == stats.boundary_counts


class TestCategoricalSampling:
    def test_pick_is_bisect_right_on_the_unshifted_row(self):
        # rows near index 3000 with zero-mass last states; odd rows start
        # with zero mass, so the next row begins where this one ends
        rng = np.random.default_rng(3)
        probs = rng.random((3002, 7))
        probs[:, -2:] = 0.0
        probs[1::2, 0] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        picker = _Picker(probs)
        rows, u = [], []
        for row in range(2990, 3002):
            cum = picker.cum[row]
            edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
            for x in np.concatenate([edges, [0.0, 1.0 - 2.0**-53, 0.5], rng.random(50)]):
                if 0.0 <= x < 1.0:
                    rows.append(row)
                    u.append(x)
        rows, u = np.array(rows), np.array(u)
        picks = picker(rows, u)
        expected = [bisect_right(picker.cum[r].tolist(), x) for r, x in zip(rows, u)]
        assert picks.tolist() == expected
        assert (probs[rows, picks] > 0.0).all()

    def test_pick_agrees_with_searchsorted(self, reference_spec):
        picker = _Picker(np.hstack([reference_spec.p01, reference_spec.p00]))
        rng = np.random.default_rng(1)
        u = rng.random(20_000)
        for i, row in enumerate(picker.cum):
            vec = np.searchsorted(row, u, side="right")
            picks = picker(np.full(u.size, i), u)
            assert np.array_equal(picks, vec)

    def test_zero_mass_states_never_drawn(self):
        picker = _Picker(np.array([[0.5, 0.0, 0.5, 0.0]]))  # index 1 and 3 carry no mass
        u = np.random.default_rng(2).random(10_000)
        assert set(picker(np.zeros(u.size, dtype=np.intp), u).tolist()) == {0, 2}

    def test_transition_frequencies_pass_goodness_of_fit(self, reference_spec):
        # one-step transitions from each internal state, 1e6 draws per row,
        # significance 1e-6
        probs = np.hstack([reference_spec.p01, reference_spec.p00])
        picker = _Picker(probs)
        rng = np.random.default_rng(99)
        for i in range(probs.shape[0]):
            u = rng.random(1_000_000)
            choices = picker(np.full(u.size, i), u)
            counts = np.bincount(choices, minlength=probs.shape[1])
            expected = probs[i] / probs[i].sum() * len(u)
            result = scipy_stats.chisquare(counts, expected)
            assert result.pvalue > 1e-6
