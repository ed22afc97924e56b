from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from tuning import (
    ChainSpec,
    DegenerateChainError,
    NumericOverflowError,
    Strategy,
    analyze_chain,
    cost_coefficients,
    degenerate_strategy,
    embedded_transition,
    indicator,
    stationary_distribution,
    visit_income,
)

from conftest import OVERFLOW_REWARD, OVERFLOW_TABLE, REF_C_TABLE, REF_PI, REF_RHO
from oracles import exact_indicator, exact_tables
from strats import one_sided_specs, spec_strategy_pairs


@pytest.fixture
def reference_analysis(reference_spec):
    return analyze_chain(reference_spec)


class TestEmbeddedTransition:
    def test_degenerate_picks_b_rows(self, reference_spec, reference_analysis):
        strategy = degenerate_strategy(3, 3, 2)
        p_tilde = embedded_transition(strategy, reference_analysis)
        expected = np.array([[1 / 3, 2 / 3], [1 / 3, 2 / 3]])
        assert np.max(np.abs(p_tilde - expected)) <= 1e-12

    def test_uniform_mixes_b_rows(self, reference_analysis):
        strategy = Strategy([0.5, 0.5], [0.5, 0.5])
        p_tilde = embedded_transition(strategy, reference_analysis)
        expected = np.array([[5 / 12, 7 / 12], [5 / 12, 7 / 12]])
        assert np.max(np.abs(p_tilde - expected)) <= 1e-12

    def test_rows_are_stochastic(self, reference_analysis):
        strategy = Strategy([0.3, 0.7], [0.9, 0.1])
        p_tilde = embedded_transition(strategy, reference_analysis)
        assert np.max(np.abs(p_tilde.sum(axis=1) - 1.0)) <= 1e-12

    def test_dimension_mismatch(self, reference_analysis):
        message = r"^strategy alpha0 must have length 2, got shape \(1,\) \(BAD_SHAPE\)$"
        with pytest.raises(ValueError, match=message):
            embedded_transition(Strategy([1.0], [1.0]), reference_analysis)


class TestStationaryDistribution:
    def test_reference_degenerate(self):
        pi = stationary_distribution(np.array([[1 / 3, 2 / 3], [1 / 3, 2 / 3]]))
        assert np.max(np.abs(pi - np.array(REF_PI, dtype=float))) <= 1e-12

    def test_symmetric_chain(self):
        pi = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert pi.tolist() == [0.5, 0.5]

    def test_balance_equations(self):
        p_tilde = np.array([[0.82, 0.18], [0.34, 0.66]])
        pi = stationary_distribution(p_tilde)
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(pi @ p_tilde - pi)) <= 1e-12

    def test_identity_chain_is_degenerate(self):
        with pytest.raises(DegenerateChainError):
            stationary_distribution(np.eye(2))

    def test_threshold_is_inclusive(self):
        p_tilde = np.array([[1.0 - 5e-15, 5e-15], [5e-15, 1.0 - 5e-15]])
        with pytest.raises(DegenerateChainError):
            stationary_distribution(p_tilde)


class TestVisitIncome:
    def test_reference_degenerate(self, reference_spec, reference_analysis):
        strategy = degenerate_strategy(3, 3, 2)
        rho = visit_income(strategy, reference_spec, reference_analysis)
        assert np.max(np.abs(rho - np.array(REF_RHO, dtype=float))) <= 1e-12

    def test_uniform(self, reference_spec, reference_analysis):
        strategy = Strategy([0.5, 0.5], [0.5, 0.5])
        rho = visit_income(strategy, reference_spec, reference_analysis)
        assert abs(rho[0] - 13 / 6) <= 1e-12

    def test_transfer_cost_cancelling_income(self, reference_spec, reference_analysis):
        spec = ChainSpec(
            n_internal=2,
            p00=reference_spec.p00,
            p01=reference_spec.p01,
            c=reference_spec.c,
            d0=-reference_analysis.r,
            d1=-reference_analysis.r,
        )
        strategy = Strategy([0.4, 0.6], [0.2, 0.8])
        rho = visit_income(strategy, spec, analyze_chain(spec))
        assert np.max(np.abs(rho)) <= 1e-12


class TestCostCoefficients:
    def test_reference_c_table(self, reference_spec, reference_analysis):
        coeffs = cost_coefficients(reference_spec, reference_analysis)
        expected = np.array(REF_C_TABLE, dtype=float)
        assert np.max(np.abs(coeffs.c_table - expected)) <= 1e-12

    def test_tables_match_exact_rational_arithmetic(self, reference_spec, reference_analysis):
        a_t, b_t, c_t = exact_tables(reference_spec)
        coeffs = cost_coefficients(reference_spec, reference_analysis)
        assert np.max(np.abs(coeffs.a_table - np.array(a_t, dtype=float))) <= 1e-12
        assert np.max(np.abs(coeffs.b_table - np.array(b_t, dtype=float))) <= 1e-12
        assert np.max(np.abs(coeffs.c_table - np.array(c_t, dtype=float))) <= 1e-12

    def test_zero_profit_model(self, reference_spec):
        # c = 0 and transfer costs cancelling r make every entry zero
        spec = ChainSpec(
            n_internal=2,
            p00=reference_spec.p00,
            p01=reference_spec.p01,
            c=[0.0, 0.0],
            d0=[0.0, 0.0],
            d1=[0.0, 0.0],
        )
        coeffs = cost_coefficients(spec, analyze_chain(spec))
        assert np.max(np.abs(coeffs.a_table)) == 0.0
        assert np.max(np.abs(coeffs.c_table)) == 0.0

    def test_one_sided_absorption_keeps_denominator_positive(self):
        # b = [[1, 0]]: the ratio denominator b1[m0] + b0[m1] is still 1
        spec = ChainSpec(
            n_internal=1, p00=[[0.0]], p01=[[1.0, 0.0]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        coeffs = cost_coefficients(spec, analyze_chain(spec))
        assert coeffs.b_table.tolist() == [[1.0]]
        assert coeffs.c_table.tolist() == [[0.0]]

    def test_split_boundaries_raise(self):
        # restart pair (2, 3) can reach neither opposite boundary: zero
        # denominator, where indicator raises the same error
        spec = ChainSpec(
            n_internal=2,
            p00=[[0.0, 0.0], [0.0, 0.0]],
            p01=[[1.0, 0.0], [0.0, 1.0]],
            c=[1.0, 1.0],
            d0=[-1.0, -1.0],
            d1=[-1.0, -1.0],
        )
        with pytest.raises(DegenerateChainError, match="off-diagonal mass 0.0"):
            cost_coefficients(spec, analyze_chain(spec))

    @settings(max_examples=100, deadline=None)
    @given(spec=one_sided_specs())
    def test_table_exists_exactly_where_every_pair_switches(self, spec):
        # either the table fails as indicator does on some pair, or every
        # entry is that pair's indicator value
        analysis = analyze_chain(spec)
        values, degenerate = {}, []
        for m0, m1 in itertools.product(spec.internal_labels(), repeat=2):
            strategy = degenerate_strategy(m0, m1, spec.n_internal)
            try:
                values[m0, m1] = indicator(strategy, spec, analysis, route="ratio")
            except DegenerateChainError:
                degenerate.append((m0, m1))
        try:
            table = cost_coefficients(spec, analysis).c_table
        except DegenerateChainError:
            assert degenerate
            return
        assert not degenerate
        for (m0, m1), value in values.items():
            assert abs(table[m0 - 2, m1 - 2] - value) <= 1e-12 * abs(value)


class TestFloatRange:
    def test_reward_overflow_raises_on_every_route_and_table(self):
        spec = ChainSpec(**OVERFLOW_REWARD)
        analysis = analyze_chain(spec)
        for route in ("embedded", "ratio", "fractional"):
            with pytest.raises(NumericOverflowError, match="reward"):
                indicator(degenerate_strategy(2, 3, 2), spec, analysis, route)
        with pytest.raises(NumericOverflowError, match="reward"):
            cost_coefficients(spec, analysis)

    def test_table_overflow_raises_only_where_a_sum_overflows(self):
        spec = ChainSpec(**OVERFLOW_TABLE)
        analysis = analyze_chain(spec)
        strategy = degenerate_strategy(2, 3, 2)
        # the embedded route weighs each reward by pi before adding
        assert indicator(strategy, spec, analysis) == 1.5000000000000002e308
        for route in ("ratio", "fractional"):
            with pytest.raises(NumericOverflowError, match=route):
                indicator(strategy, spec, analysis, route)
        with pytest.raises(NumericOverflowError, match="table"):
            cost_coefficients(spec, analysis)

    @pytest.mark.parametrize("m0, m1, value", [
        (2, 2, 1.5000000000000002e308),
        (3, 2, 1.4999999999999998e308),
    ])
    def test_fractional_route_skips_overflowed_entries_of_zero_weight(self, m0, m1, value):
        # only the (2, 3) entry of a_table overflows, and these strategies give it weight 0
        spec = ChainSpec(**OVERFLOW_TABLE)
        strategy = degenerate_strategy(m0, m1, 2)
        assert indicator(strategy, spec, analyze_chain(spec), "fractional") == value


class TestIndicator:
    def test_reference_degenerate_optimum(self, reference_spec, reference_analysis):
        strategy = degenerate_strategy(3, 3, 2)
        value = indicator(strategy, reference_spec, reference_analysis)
        assert abs(value - 43 / 15) <= 1e-12

    def test_degenerate_collapse_on_full_grid(self, reference_spec, reference_analysis):
        coeffs = cost_coefficients(reference_spec, reference_analysis)
        for m0 in (2, 3):
            for m1 in (2, 3):
                strategy = degenerate_strategy(m0, m1, 2)
                value = indicator(strategy, reference_spec, reference_analysis)
                table_value = coeffs.c_table[m0 - 2, m1 - 2]
                assert abs(value - table_value) <= 1e-12 * max(1.0, abs(table_value))

    def test_routes_agree_on_uniform(self, reference_spec, reference_analysis):
        strategy = Strategy([0.5, 0.5], [0.5, 0.5])
        values = [
            indicator(strategy, reference_spec, reference_analysis, route)
            for route in ("embedded", "ratio", "fractional")
        ]
        assert max(values) - min(values) <= 1e-12 * max(1.0, abs(values[0]))

    def test_unknown_route(self, reference_spec, reference_analysis):
        with pytest.raises(ValueError, match="route"):
            indicator(
                degenerate_strategy(2, 2, 2),
                reference_spec,
                reference_analysis,
                route="secret",
            )

    def test_degenerate_chain_raises_on_all_routes(self):
        spec = ChainSpec(
            n_internal=2,
            p00=np.zeros((2, 2)),
            p01=[[1.0, 0.0], [0.0, 1.0]],
            c=[1.0, 1.0],
            d0=[-1.0, -1.0],
            d1=[-1.0, -1.0],
        )
        analysis = analyze_chain(spec)
        strategy = degenerate_strategy(2, 3, 2)
        for route in ("embedded", "ratio", "fractional"):
            with pytest.raises(DegenerateChainError):
                indicator(strategy, spec, analysis, route)

    def test_matches_exact_rational_value(self, reference_spec, reference_analysis):
        strategy = Strategy([0.25, 0.75], [0.6, 0.4])
        exact = float(
            exact_indicator(reference_spec, strategy.alpha0, strategy.alpha1)
        )
        for route in ("embedded", "ratio", "fractional"):
            value = indicator(strategy, reference_spec, reference_analysis, route)
            assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))

    @settings(max_examples=80, deadline=None)
    @given(pair=spec_strategy_pairs())
    def test_routes_agree_on_random_pairs(self, pair):
        spec, strategy = pair
        analysis = analyze_chain(spec)
        values = [
            indicator(strategy, spec, analysis, route)
            for route in ("embedded", "ratio", "fractional")
        ]
        scale = max(1.0, max(abs(v) for v in values))
        assert max(values) - min(values) <= 1e-11 * scale

    @settings(max_examples=60, deadline=None)
    @given(pair=spec_strategy_pairs())
    def test_balance_residual_small(self, pair):
        spec, strategy = pair
        p_tilde = embedded_transition(strategy, analyze_chain(spec))
        pi = stationary_distribution(p_tilde)
        assert np.max(np.abs(pi @ p_tilde - pi)) <= 1e-12
        assert abs(pi.sum() - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pair=spec_strategy_pairs())
    def test_fractional_denominator_equals_offdiagonal_mass(self, pair):
        spec, strategy = pair
        analysis = analyze_chain(spec)
        p_tilde = embedded_transition(strategy, analysis)
        from tuning.stationary import _coefficient_tables

        _, bt = _coefficient_tables(spec, analysis)
        den = float((bt * np.outer(strategy.alpha0, strategy.alpha1)).sum())
        off = float(p_tilde[0, 1] + p_tilde[1, 0])
        assert abs(den - off) <= 1e-12 * max(1.0, off)
