from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from tuning import (
    ChainSpec,
    NumericOverflowError,
    SingularSystemError,
    absorption_probabilities,
    analyze_chain,
    check_positivity,
    expected_income,
    fundamental_solve,
)

from conftest import REF_B, REF_FUNDAMENTAL, REF_R
from oracles import exact_analysis, mc_absorption, neumann_fundamental, random_spec
from strats import chain_specs


class TestFundamentalSolve:
    def test_reference_fundamental_matrix(self, reference_spec):
        got = fundamental_solve(reference_spec.p00, np.eye(2))
        expected = np.array(REF_FUNDAMENTAL, dtype=float)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_identity_when_no_internal_moves(self):
        got = fundamental_solve(np.zeros((2, 2)), np.array([3.0, -1.0]))
        assert got.tolist() == [3.0, -1.0]

    def test_residual_bound_holds(self, reference_spec):
        rhs = reference_spec.p01
        x = fundamental_solve(reference_spec.p00, rhs)
        residual = (np.eye(2) - reference_spec.p00) @ x - rhs
        assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_singular_raises(self):
        with pytest.raises(SingularSystemError):
            fundamental_solve(np.array([[1.0]]), np.array([1.0]))

    def test_each_stacked_column_keeps_its_own_bound(self):
        # I - P00 with one singular value of 1e-9: the probability columns
        # solve to ~1e9 and leave a residual ~3e-8, far above their bound
        # 1e-10 but below 1e-10 * max|c| ~ 2e-2, the bound a single check on
        # the stacked rhs would apply; the c column itself is well solved
        rng = np.random.default_rng(0)
        n = 6
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (u * np.array([1.0] * (n - 1) + [1e-9])) @ v.T
        spec = ChainSpec(
            n_internal=n,
            p00=np.eye(n) - a,
            p01=np.full((n, 2), 0.5),
            c=1e8 * (a @ np.ones(n)),
            d0=-np.ones(n),
            d1=-np.ones(n),
        )
        fundamental_solve(spec.p00, spec.c)
        with pytest.raises(SingularSystemError, match="exceeds bound 1.000e-10"):
            analyze_chain(spec)

    def test_vector_and_matrix_rhs(self, reference_spec):
        vec = fundamental_solve(reference_spec.p00, reference_spec.c)
        mat = fundamental_solve(reference_spec.p00, reference_spec.c[:, None])
        assert vec.shape == (2,)
        assert mat.shape == (2, 1)
        assert np.allclose(vec, mat[:, 0], rtol=0, atol=0)


class TestAbsorptionProbabilities:
    def test_reference_values(self, reference_spec):
        got = absorption_probabilities(reference_spec)
        expected = np.array(REF_B, dtype=float)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_immediate_absorption(self):
        spec = ChainSpec(
            n_internal=1, p00=[[0.0]], p01=[[0.25, 0.75]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        assert absorption_probabilities(spec).tolist() == [[0.25, 0.75]]

    @settings(max_examples=60)
    @given(spec=chain_specs())
    def test_rows_sum_to_one(self, spec):
        b = absorption_probabilities(spec)
        assert np.max(np.abs(b.sum(axis=1) - 1.0)) <= 1e-10

    def test_matches_exact_rational_solution(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            spec = random_spec(rng, int(rng.integers(1, 5)))
            b_exact, r_exact = exact_analysis(spec)
            analysis = analyze_chain(spec)
            b_err = np.max(np.abs(analysis.b - np.array(b_exact, dtype=float)))
            r_err = np.max(np.abs(analysis.r - np.array(r_exact, dtype=float)))
            assert b_err <= 1e-12
            assert r_err <= 1e-12


class TestExpectedIncome:
    def test_reference_values(self, reference_spec):
        got = expected_income(reference_spec)
        expected = np.array(REF_R, dtype=float)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_no_internal_moves_gives_c(self):
        spec = ChainSpec(
            n_internal=2,
            p00=np.zeros((2, 2)),
            p01=[[0.5, 0.5], [0.5, 0.5]],
            c=[4.0, -2.0],
            d0=[-1.0, -1.0],
            d1=[-1.0, -1.0],
        )
        assert expected_income(spec).tolist() == [4.0, -2.0]

    def test_zero_income_everywhere(self, reference_spec):
        spec = ChainSpec(
            n_internal=2,
            p00=reference_spec.p00,
            p01=reference_spec.p01,
            c=[0.0, 0.0],
            d0=reference_spec.d0,
            d1=reference_spec.d1,
        )
        assert expected_income(spec).tolist() == [0.0, 0.0]

    @settings(max_examples=40)
    @given(spec=chain_specs())
    def test_linear_in_c(self, spec):
        r1 = expected_income(spec)
        doubled = ChainSpec(
            n_internal=spec.n_internal,
            p00=spec.p00,
            p01=spec.p01,
            c=2.0 * spec.c,
            d0=spec.d0,
            d1=spec.d1,
        )
        r2 = expected_income(doubled)
        # power-of-two scaling commutes with every float operation
        assert np.array_equal(r2, 2.0 * r1)


class TestAnalyzeChain:
    def test_income_overflow_is_not_a_singular_system(self, reference_spec):
        spec = ChainSpec(
            n_internal=2, p00=reference_spec.p00, p01=reference_spec.p01,
            c=[1e308, 1e308], d0=reference_spec.d0, d1=reference_spec.d1,
        )
        with pytest.raises(NumericOverflowError):
            analyze_chain(spec)

    def test_singular_system_is_still_reported(self):
        spec = ChainSpec(n_internal=1, p00=[[1.0]], p01=[[0.0, 0.0]], c=[1e308], d0=[-1.0], d1=[-1.0])
        with pytest.raises(SingularSystemError):
            analyze_chain(spec)


class TestNeumannCrossCheck:
    def test_fundamental_matrix_matches_power_series(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            spec = random_spec(rng, int(rng.integers(1, 6)))
            n = spec.n_internal
            direct = fundamental_solve(spec.p00, np.eye(n))
            series = neumann_fundamental(spec.p00)
            assert np.max(np.abs(direct - series)) <= 1e-8


class TestMonteCarloCrossCheck:
    def test_reference_absorption_frequencies(self, reference_spec):
        analysis = analyze_chain(reference_spec)
        for start in range(2):
            freq, mean_income, se = mc_absorption(
                reference_spec, start, runs=200_000, seed=start + 1
            )
            binom_se = np.sqrt(analysis.b[start] * (1 - analysis.b[start]) / 200_000)
            assert np.all(np.abs(freq - analysis.b[start]) <= 4 * binom_se)
            assert abs(mean_income - analysis.r[start]) <= 4 * se


class TestCheckPositivity:
    def test_clean_on_reference(self, reference_spec):
        assert check_positivity(analyze_chain(reference_spec)).ok

    def test_zero_entry_flagged_with_label(self):
        spec = ChainSpec(
            n_internal=1, p00=[[0.0]], p01=[[1.0, 0.0]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        report = check_positivity(analyze_chain(spec))
        assert not report.ok
        assert report.errors[0].code == "B_NOT_POSITIVE"
        assert report.errors[0].where == 2

    def test_epsilon_widens_the_net(self, reference_spec):
        report = check_positivity(analyze_chain(reference_spec), epsilon=0.4)
        # only the 1/3 entry is at or below 0.4
        assert len(report.errors) == 1
        assert report.errors[0].where == 3
