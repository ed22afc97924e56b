from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings

from tuning import (
    ChainSpec,
    NumericOverflowError,
    SingularSystemError,
    analyze_chain,
    check_positivity,
    cost_coefficients,
    fundamental_solve,
    refute_with_random_strategies,
    solve_tuning,
    to_doc,
)
from tuning.absorption import POSITIVITY_EPS

from conftest import OVERFLOW_RESIDUAL, REF_B, REF_FUNDAMENTAL, REF_R
from oracles import (
    exact_analysis,
    ill_conditioned_specs,
    ladder_analysis,
    mc_absorption,
    neumann_fundamental,
    random_spec,
)
from strats import chain_specs


def stacked_column_spec() -> ChainSpec:
    """I - P00 with one singular value of 1e-9: the probability columns
    solve to ~1e9 and leave a residual ~3e-8, far above their bound 1e-10
    but below 1e-10 * max|c| ~ 2e-2, the bound a single check on the
    stacked rhs would apply; the c column itself is well solved."""
    rng = np.random.default_rng(0)
    n = 6
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (u * np.array([1.0] * (n - 1) + [1e-9])) @ v.T
    return ChainSpec(
        n_internal=n,
        p00=np.eye(n) - a,
        p01=np.full((n, 2), 0.5),
        c=1e8 * (a @ np.ones(n)),
        d0=-np.ones(n),
        d1=-np.ones(n),
    )


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
        spec = stacked_column_spec()
        fundamental_solve(spec.p00, spec.c)
        with pytest.raises(SingularSystemError, match="exceeds bound 1.000e-10"):
            analyze_chain(spec)

    @pytest.mark.parametrize("rhs, error", [
        ([[1e300, 1.0]], NumericOverflowError),  # the second column meets its bound: I - P00 is sound
        ([[1e300, 1e300]], SingularSystemError),  # no column meets its bound
    ], ids=["overflow", "singular"])
    def test_a_miss_is_overflow_only_beside_a_met_column(self, rhs, error):
        # I - P00 = 2^-52 exactly: 1e300 solves to inf, 1.0 to 2^52 exactly
        with pytest.raises(error):
            fundamental_solve(np.array([[1.0 - 2.0**-52]]), np.array(rhs))

    def test_vector_and_matrix_rhs(self, reference_spec):
        vec = fundamental_solve(reference_spec.p00, reference_spec.c)
        mat = fundamental_solve(reference_spec.p00, reference_spec.c[:, None])
        assert vec.shape == (2,)
        assert mat.shape == (2, 1)
        assert np.allclose(vec, mat[:, 0], rtol=0, atol=0)


class TestAbsorptionProbabilities:
    def test_reference_values(self, reference_spec):
        got = analyze_chain(reference_spec).b
        expected = np.array(REF_B, dtype=float)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_immediate_absorption(self):
        spec = ChainSpec(
            n_internal=1, p00=[[0.0]], p01=[[0.25, 0.75]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        assert analyze_chain(spec).b.tolist() == [[0.25, 0.75]]

    @settings(max_examples=60)
    @given(spec=chain_specs())
    def test_rows_sum_to_one(self, spec):
        b = analyze_chain(spec).b
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
        got = analyze_chain(reference_spec).r
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
        assert analyze_chain(spec).r.tolist() == [4.0, -2.0]

    def test_zero_income_everywhere(self, reference_spec):
        spec = ChainSpec(
            n_internal=2,
            p00=reference_spec.p00,
            p01=reference_spec.p01,
            c=[0.0, 0.0],
            d0=reference_spec.d0,
            d1=reference_spec.d1,
        )
        assert analyze_chain(spec).r.tolist() == [0.0, 0.0]

    @settings(max_examples=40)
    @given(spec=chain_specs())
    @example(spec=ChainSpec(
        n_internal=1, p00=[[0.01]], p01=[[0.495, 0.495]], c=[2.22507386e-311], d0=[0.0], d1=[0.0],
    ))
    def test_linear_in_c(self, spec):
        r1 = analyze_chain(spec).r
        doubled = ChainSpec(
            n_internal=spec.n_internal,
            p00=spec.p00,
            p01=spec.p01,
            c=2.0 * spec.c,
            d0=spec.d0,
            d1=spec.d1,
        )
        r2 = analyze_chain(doubled).r
        # power-of-two scaling commutes with every float operation that
        # neither over- nor underflows; below 2^53 times the smallest normal
        # float, gradual underflow rounds to absolute steps of 2^-1074,
        # which doubling does not preserve
        values = np.concatenate([spec.c, r1])
        if np.all(np.abs(values[values != 0.0]) >= 2.0**53 * np.finfo(float).tiny):
            assert np.array_equal(r2, 2.0 * r1)
        else:
            assert np.max(np.abs(r2 - 2.0 * r1)) <= 8 * spec.n_internal * 2.0**-1074


class TestAnalyzeChain:
    def test_income_overflow_is_not_a_singular_system(self, reference_spec):
        spec = ChainSpec(
            n_internal=2, p00=reference_spec.p00, p01=reference_spec.p01,
            c=[1e308, 1e308], d0=reference_spec.d0, d1=reference_spec.d1,
        )
        with pytest.raises(NumericOverflowError):
            analyze_chain(spec)

    def test_residual_overflow_is_not_a_singular_system(self):
        spec = ChainSpec(**OVERFLOW_RESIDUAL)
        # r itself is finite; only the residual check leaves the float range
        assert np.isfinite(np.linalg.solve(np.eye(3) - spec.p00, spec.c)).all()
        with pytest.raises(NumericOverflowError):
            analyze_chain(spec)

    def test_singular_system_is_still_reported(self):
        spec = ChainSpec(n_internal=1, p00=[[1.0]], p01=[[0.0, 0.0]], c=[1e308], d0=[-1.0], d1=[-1.0])
        with pytest.raises(SingularSystemError):
            analyze_chain(spec)


class TestSolveClassification:
    def test_single_solve_classifies_as_the_refined_ladder(self):
        # the same error code as the three-solve ladder on every model, and
        # bitwise the same b and r on every success
        codes = collections.Counter()
        for spec in ill_conditioned_specs(np.random.default_rng(20), 2400):
            code, b, r = ladder_analysis(spec)
            try:
                analysis = analyze_chain(spec)
            except (NumericOverflowError, SingularSystemError) as exc:
                assert exc.code == code
            else:
                assert code == "ok"
                assert analysis.b.tobytes() == b.tobytes()
                assert analysis.r.tobytes() == r.tobytes()
            codes[code] += 1
        assert min(codes["ok"], codes["OVERFLOW"], codes["SINGULAR_SYSTEM"]) >= 150, codes


class TestAnalysisIsSolvedOncePerSpec:
    def test_same_object_on_every_call(self, reference_spec):
        assert analyze_chain(reference_spec) is analyze_chain(reference_spec)

    def test_every_library_caller_shares_one_solve(self, reference_spec, solves):
        spec = reference_spec
        analysis = analyze_chain(spec)
        solve_tuning(spec, "maximize")
        minimum = solve_tuning(spec, "minimize")
        cost_coefficients(spec, analyze_chain(spec))
        refute_with_random_strategies(spec, minimum, 100, seed=0)
        assert len(solves) == 1

    def test_a_twin_spec_solves_again(self, reference_spec, solves):
        first = analyze_chain(reference_spec)
        second = analyze_chain(dataclasses.replace(reference_spec))
        assert len(solves) == 2
        assert second is not first
        assert np.array_equal(second.b, first.b) and np.array_equal(second.r, first.r)

    def test_a_failed_solve_is_not_stored(self, solves):
        spec = ChainSpec(**OVERFLOW_RESIDUAL)
        for attempt in (1, 2):
            with pytest.raises(NumericOverflowError):
                analyze_chain(spec)
            assert len(solves) == attempt
        assert set(vars(spec)) == {f.name for f in dataclasses.fields(spec)}

    @pytest.mark.parametrize("make, error", [
        (lambda ref: ref, None),
        (lambda ref: ChainSpec(**OVERFLOW_RESIDUAL), NumericOverflowError),
        (lambda ref: dataclasses.replace(ref, c=[1e308, 1e308]), NumericOverflowError),
        (lambda ref: stacked_column_spec(), SingularSystemError),
    ], ids=["ok", "overflow-residual", "overflow-r", "singular"])
    def test_one_solve_whatever_the_outcome(self, reference_spec, solves, monkeypatch, make, error):
        spec = make(reference_spec)
        factorizations = []
        solve = np.linalg.solve

        def counted(a, b):
            factorizations.append(b.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        if error is None:
            analyze_chain(spec)
        else:
            with pytest.raises(error):
                analyze_chain(spec)
        assert solves == factorizations == [(spec.n_internal, 3)]

    def test_documents_and_repr_are_unchanged(self, reference_spec):
        doc, text = to_doc(reference_spec), repr(reference_spec)
        analyze_chain(reference_spec)
        assert to_doc(reference_spec) == doc
        assert repr(reference_spec) == text


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

    def test_entry_at_the_threshold_is_flagged(self):
        # 1e-12 is exactly POSITIVITY_EPS: "at or below" flags it
        spec = ChainSpec(
            n_internal=1, p00=[[0.0]], p01=[[1e-12, 1 - 1e-12]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        analysis = analyze_chain(spec)
        assert analysis.b[0, 0] == POSITIVITY_EPS
        report = check_positivity(analysis)
        assert [(v.code, v.where) for v in report.errors] == [("B_NOT_POSITIVE", 2)]
