from __future__ import annotations

import math
import re
import tracemalloc
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
    embedded_transition,
    indicator,
    sample_trajectory,
    simulate,
    validate_strategy,
    visit_income,
)
from tuning.simulator import SimulationStats, _Kernel, _Moments, _Picker

from conftest import OVERFLOW_REWARD, REF_I_STAR, REF_PI, REFERENCE, TRAP_AT_LABEL_2
from strats import mutated_alphas, spec_strategy_pairs


def trajectory_cycles(spec, strategy, cycles, seed):
    """Start boundaries and incomes of the first ``cycles`` completed cycles
    of the sampled path, each income summed in path order. The path starts
    at boundary 0, and each cycle runs from a transfer to an absorption."""
    steps = 16 * cycles + 64
    while True:
        starts, incomes, at = [], [], 0
        for event in sample_trajectory(spec, strategy, steps, seed):
            if event.event_kind == "absorption":
                starts.append(at)
                incomes.append(acc)
                at = event.state
            elif event.event_kind == "transfer":
                acc = event.income_delta
            else:
                acc += event.income_delta
        if len(incomes) >= cycles:
            return starts[:cycles], incomes[:cycles]
        steps *= 4


def first_cycles(spec, strategy, seed, stream, cycles):
    """Starts and incomes of the first ``cycles`` cycles of one replication,
    batch by batch as the kernel yields them."""
    left = cycles
    for batch in _Kernel(spec, strategy, seed, stream, 10**9).cycles():
        yield batch["start"][:left], batch["income"][:left]
        left -= min(left, batch["income"].size)
        if not left:
            return


@pytest.fixture
def one_state_deterministic():
    # p00 = 0 forces a one-step cycle: transfer, then immediate absorption
    spec = ChainSpec(
        n_internal=1, p00=[[0.0]], p01=[[0.5, 0.5]], c=[5.0], d0=[-1.0], d1=[-1.0]
    )
    return spec, degenerate_strategy(2, 2, 1)


@pytest.fixture
def two_state_segments():
    # restart at label 2, then label 3 for sure, then the boundary: every
    # segment holds exactly 2 internal states
    spec = ChainSpec(
        n_internal=2, p00=[[0, 1], [0, 0]], p01=[[0, 0], [0.5, 0.5]], c=[1, 2], d0=[-1, -1], d1=[-1, -1]
    )
    return spec, degenerate_strategy(2, 2, 2)


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

    def test_segment_of_exactly_the_limit_runs(self, two_state_segments):
        stats = simulate(*two_state_segments, cycles=5, seed=0, segment_limit=2)
        assert (stats.total_income, stats.boundary_counts) == (10.0, (2, 3))
        with pytest.raises(CycleLimitError):
            simulate(*two_state_segments, cycles=5, seed=0, segment_limit=1)

    def test_traced_memory_does_not_grow_with_the_run(self, reference_spec):
        # a few pools' lanes; a run that kept its cycles would hold 16 bytes per cycle
        strategy = degenerate_strategy(3, 3, 2)
        simulate(reference_spec, strategy, 100_000, seed=1)  # numpy's first-call allocations
        peaks = []
        for cycles in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                simulate(reference_spec, strategy, cycles, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2 * 2**20
        assert max(peaks) <= 1.1 * min(peaks)


class TestReplications:
    def test_pooling_matches_manual_merge(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        pooled = simulate(reference_spec, strategy, 1_000, seed=5, replications=3)
        # replication r is stream r, and all of them fold into one accumulator in order
        moments = _Moments()
        for stream in range(3):
            for starts, incomes in first_cycles(reference_spec, strategy, 5, stream, 1_000):
                moments.fold(starts, incomes)
        assert pooled == SimulationStats(
            cycles=3_000,
            total_income=moments.total,
            i_hat=moments.total / 3_000,
            std_error=moments.std_error(),
            boundary_counts=(int(moments.counts[0]), int(moments.counts[1])),
        )

    def test_one_replication_equals_simulate(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        assert simulate(
            reference_spec, strategy, 2_000, seed=9, replications=1
        ) == simulate(reference_spec, strategy, 2_000, seed=9)

    def test_streams_are_independent(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        a, b = (
            np.concatenate([incomes for _, incomes in first_cycles(reference_spec, strategy, 5, stream, 100)])
            for stream in (0, 1)
        )
        assert a.size == b.size == 100
        assert not np.array_equal(a, b)  # incomes from different streams differ

    def test_std_error_shrinks_with_replications(self, reference_spec):
        strategy = degenerate_strategy(3, 3, 2)
        one = simulate(reference_spec, strategy, 2_000, seed=5, replications=1)
        many = simulate(reference_spec, strategy, 2_000, seed=5, replications=8)
        assert many.std_error < one.std_error


# every library entry point that takes a Strategy
ENTRY_POINTS = {
    "embedded": lambda spec, strategy: indicator(strategy, spec, analyze_chain(spec), "embedded"),
    "ratio": lambda spec, strategy: indicator(strategy, spec, analyze_chain(spec), "ratio"),
    "fractional": lambda spec, strategy: indicator(strategy, spec, analyze_chain(spec), "fractional"),
    "embedded_transition": lambda spec, strategy: embedded_transition(strategy, analyze_chain(spec)),
    "visit_income": lambda spec, strategy: visit_income(strategy, spec, analyze_chain(spec)),
    "simulate": lambda spec, strategy: simulate(spec, strategy, 100, seed=0),
    "trajectory": lambda spec, strategy: sample_trajectory(spec, strategy, 50, seed=0),
}


class TestStrategyLength:
    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("run", [
        lambda spec, strategy: simulate(spec, strategy, 100, seed=0),
        lambda spec, strategy: sample_trajectory(spec, strategy, 50, seed=0),
    ], ids=["simulate", "trajectory"])
    def test_wrong_length_is_rejected_as_indicator_rejects_it(self, reference_spec, run, length):
        strategy = Strategy(np.full(length, 1.0 / length), np.full(length, 1.0 / length))
        message = re.escape(f"strategy alpha0 must have length 2, got shape ({length},) (BAD_SHAPE)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            indicator(strategy, reference_spec, analyze_chain(reference_spec))
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(reference_spec, strategy)

    @pytest.mark.parametrize(
        "alpha, finding",
        [
            ([0.5, 0.3], "sums to 0.8, not 1 (NOT_NORMALIZED)"),
            ([-0.5, 1.5], "has negative mass at state labels [2] (NEGATIVE_MASS)"),
            ([np.nan, 0.5], "contains NaN or infinity (NOT_FINITE)"),
            ([True, False], "must hold numbers only (NOT_NUMERIC)"),
            (["a", "b"], "must hold numbers only (NOT_NUMERIC)"),
        ],
        ids=["sum", "negative", "nan", "bool", "str"],
    )
    @pytest.mark.parametrize("side", ["alpha0", "alpha1"])
    @pytest.mark.parametrize("run", ENTRY_POINTS, ids=list(ENTRY_POINTS))
    def test_a_strategy_that_is_not_a_distribution_is_rejected(self, reference_spec, run, side, alpha, finding):
        # raised with validate_strategy's first finding, the one the CLI reports first
        strategy = Strategy(**{"alpha0": [0.5, 0.5], "alpha1": [0.5, 0.5], side: alpha})
        with pytest.raises(ValueError, match=f"^{re.escape(f'strategy {side} {finding}')}$"):
            ENTRY_POINTS[run](reference_spec, strategy)

    @settings(max_examples=80, deadline=None)
    @given(alpha0=mutated_alphas(2), alpha1=mutated_alphas(2))
    def test_the_library_rejects_exactly_what_validate_rejects(self, alpha0, alpha1):
        spec, strategy = ChainSpec(**REFERENCE), Strategy(alpha0, alpha1)
        report = validate_strategy(strategy, 2)
        for run in ("embedded", "simulate"):
            if report.ok:
                ENTRY_POINTS[run](spec, strategy)
            else:
                first = report.errors[0]
                message = re.escape(f"strategy {first.message} ({first.code})")
                with pytest.raises(ValueError, match=f"^{message}$"):
                    ENTRY_POINTS[run](spec, strategy)


class TestTrajectory:
    def test_starts_with_a_transfer_from_boundary_0(self, reference_spec):
        # d0 and d1 differ at every label, so a transfer from boundary 1 would show
        spec, strategy = reference_spec, Strategy([0.25, 0.75], [0.5, 0.5])
        firsts = {sample_trajectory(spec, strategy, 1, seed=seed)[0] for seed in range(20)}
        assert {(e.step, e.event_kind) for e in firsts} == {(0, "transfer")}
        assert {e.state for e in firsts} == {2, 3}  # alpha0's support
        assert all(e.income_delta == spec.d0[e.state - 2] + spec.c[e.state - 2] for e in firsts)

    def test_transfer_overflow_raises(self):
        # d + c of a transfer overflows, as simulate's total does
        with pytest.raises(NumericOverflowError, match="transfer"):
            sample_trajectory(ChainSpec(**OVERFLOW_REWARD), degenerate_strategy(2, 3, 2), 10, seed=0)

    def test_alternation_when_absorption_is_immediate(self, one_state_deterministic):
        spec, strategy = one_state_deterministic
        events = sample_trajectory(spec, strategy, 41, seed=3)
        # strict alternation from step 0
        assert [e.event_kind for e in events] == [("transfer", "absorption")[i % 2] for i in range(41)]

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
        # expected segment length ~1e12: the path ends inside the first cycle
        spec = ChainSpec(
            n_internal=1, p00=[[0.999999999999]], p01=[[5e-13, 5e-13]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        events = sample_trajectory(spec, degenerate_strategy(2, 2, 1), 300, seed=1)
        assert [e.step for e in events] == list(range(300))
        assert [e.event_kind for e in events] == ["transfer"] + ["free_move"] * 299

    def test_unvisited_slow_state_is_never_walked(self):
        # the strategy restarts at label 3 only; a start at label 2 would
        # spend the whole path there
        events = sample_trajectory(ChainSpec(**TRAP_AT_LABEL_2), degenerate_strategy(3, 3, 2), 200, seed=0)
        assert len(events) == 200
        assert 2 not in {e.state for e in events}

    def test_two_state_segments_are_pinned(self, two_state_segments):
        events = sample_trajectory(*two_state_segments, 5, seed=0)
        assert [(e.step, e.state, e.event_kind, e.income_delta) for e in events] == [
            (0, 2, "transfer", 0.0),
            (1, 3, "free_move", 2.0),
            (2, 0, "absorption", 0.0),
            (3, 2, "transfer", 0.0),
            (4, 3, "free_move", 2.0),
        ]

    def test_deterministic_given_seed(self, reference_spec):
        strategy = Strategy([0.5, 0.5], [0.5, 0.5])
        first = sample_trajectory(reference_spec, strategy, 200, seed=11)
        second = sample_trajectory(reference_spec, strategy, 200, seed=11)
        assert first == second


# (cycles, max_steps, a count both boundaries exceed): 16657 = 1 + 16 + 256 + 4096 + 4096 + 8192,
# so the long run draws a repeated 8192 pool on both boundaries
@pytest.mark.parametrize("cycles, max_steps, past", [(60, 4_000, 0), (60_000, 200_000, 16657)])
class TestAccountingIdentity:
    def test_trajectory_cycles_reproduce_simulate_exactly(self, reference_spec, cycles, max_steps, past):
        strategy = Strategy([0.25, 0.75], [0.6, 0.4])
        stats = simulate(reference_spec, strategy, cycles=cycles, seed=123)
        events = sample_trajectory(reference_spec, strategy, max_steps, seed=123)
        assert min(stats.boundary_counts) > past

        # each completed cycle runs from a transfer to the next absorption
        incomes = []
        for event in events:
            if event.event_kind == "absorption":
                incomes.append(acc)
            elif event.event_kind == "transfer":
                acc = event.income_delta
            else:
                acc += event.income_delta
        assert len(incomes) >= cycles

        total = 0.0
        for income in incomes[:cycles]:
            total += income
        assert total == stats.total_income

    def test_boundary_counts_match_trajectory(self, reference_spec, cycles, max_steps, past):
        strategy = Strategy([0.25, 0.75], [0.6, 0.4])
        stats = simulate(reference_spec, strategy, cycles=cycles, seed=123)
        events = sample_trajectory(reference_spec, strategy, max_steps, seed=123)
        assert min(stats.boundary_counts) > past
        # the first cycle starts at boundary 0, each later one where the last ended
        starts = [0] + [e.state for e in events if e.event_kind == "absorption"][:cycles - 1]
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
