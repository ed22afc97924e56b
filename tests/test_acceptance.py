"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
on passing runs as well.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tuning import (
    ChainSpec,
    Strategy,
    analyze_chain,
    cost_coefficients,
    degenerate_strategy,
    fundamental_solve,
    indicator,
    refute_with_random_strategies,
    simulate,
    solve_tuning,
)
from tuning.cli import main

from conftest import REF_B, REF_C_TABLE, REF_I_STAR, REF_PI, REF_R
from oracles import mc_absorption, neumann_fundamental, random_spec


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_analytic_pipeline_exactness(reference_spec):
    with criterion(1, "analytic pipeline reproduces exact reference values, < 1 ms"):
        analysis = analyze_chain(reference_spec)
        coeffs = cost_coefficients(reference_spec, analysis)
        control = solve_tuning(reference_spec, "maximize")

        assert np.max(np.abs(analysis.b - np.array(REF_B, dtype=float))) <= 1e-10
        assert np.max(np.abs(analysis.r - np.array(REF_R, dtype=float))) <= 1e-10
        assert np.max(np.abs(coeffs.c_table - np.array(REF_C_TABLE, dtype=float))) <= 1e-10
        assert (control.m0_star, control.m1_star) == (3, 3)
        assert abs(control.value - float(REF_I_STAR)) <= 1e-10

        best = min(
            _timed(lambda: solve_tuning(reference_spec, "maximize")) for _ in range(5)
        )
        assert best < 1e-3, f"pipeline took {best * 1e3:.3f} ms"


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_2_route_agreement():
    with criterion(2, "three indicator routes agree to 1e-11 relative on 1000 random pairs, < 5 s"):
        rng = np.random.default_rng(20240816)
        start = time.perf_counter()
        worst = 0.0
        for i in range(1000):
            n = (i % 5) + 1
            spec = random_spec(rng, n)
            analysis = analyze_chain(spec)
            strategy = Strategy(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            values = [
                indicator(strategy, spec, analysis, route)
                for route in ("embedded", "ratio", "fractional")
            ]
            scale = max(1.0, max(abs(v) for v in values))
            worst = max(worst, (max(values) - min(values)) / scale)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-11, f"worst relative disagreement {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"
        print(f"  (worst relative route disagreement {worst:.3e}, {elapsed:.2f} s)")


def test_criterion_3_degenerate_dominance():
    with criterion(
        3,
        "no random strategy beats the solved optimum on 20 specs x 10^4 samples; "
        "argmax reproduced by indicator within 1e-12, < 30 s",
    ):
        rng = np.random.default_rng(77001)
        start = time.perf_counter()
        total_violations = 0
        for k in range(20):
            n = (k % 5) + 1
            spec = random_spec(rng, n)
            control = solve_tuning(spec, "maximize")
            report = refute_with_random_strategies(spec, control, samples=10_000, seed=k)
            total_violations += report.violations

            strategy = degenerate_strategy(control.m0_star, control.m1_star, n)
            value = indicator(strategy, spec, analyze_chain(spec))
            assert abs(value - control.value) <= 1e-12 * max(1.0, abs(control.value))
        elapsed = time.perf_counter() - start
        assert total_violations == 0
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_4_ergodic_convergence(reference_spec):
    with criterion(
        4,
        "10^5 simulated cycles at degenerate (3,3) match the analytic value "
        "within 4 standard errors; boundary frequencies match pi, < 5 s",
    ):
        start = time.perf_counter()
        stats = simulate(reference_spec, degenerate_strategy(3, 3, 2), 100_000, seed=42)
        elapsed = time.perf_counter() - start

        target = float(REF_I_STAR)
        assert stats.std_error > 0.0
        assert abs(stats.i_hat - target) <= 4 * stats.std_error

        pi = np.array(REF_PI, dtype=float)
        freq = np.array(stats.boundary_counts) / stats.cycles
        binom_se = np.sqrt(pi * (1 - pi) / stats.cycles)
        assert np.all(np.abs(freq - pi) <= 4 * binom_se)
        assert elapsed < 5.0, f"took {elapsed:.2f} s"
        print(
            f"  (i_hat {stats.i_hat:.6f} vs {target:.6f}, "
            f"|diff| = {abs(stats.i_hat - target):.2e} <= {4 * stats.std_error:.2e})"
        )


def test_criterion_5_monte_carlo_absorption(reference_spec):
    with criterion(
        5,
        "10^6 Monte Carlo segments per start state match B and r within 4 "
        "standard errors; power-series fundamental matrix within 1e-8, < 60 s",
    ):
        start = time.perf_counter()
        analysis = analyze_chain(reference_spec)
        runs = 1_000_000
        for start_index in range(2):
            freq, mean_income, se = mc_absorption(
                reference_spec, start_index, runs=runs, seed=1000 + start_index
            )
            b_row = analysis.b[start_index]
            binom_se = np.sqrt(b_row * (1 - b_row) / runs)
            assert np.all(np.abs(freq - b_row) <= 4 * binom_se)
            assert abs(mean_income - analysis.r[start_index]) <= 4 * se

        rng = np.random.default_rng(31337)
        for _ in range(30):
            spec = random_spec(rng, int(rng.integers(1, 6)))
            direct = fundamental_solve(spec.p00, np.eye(spec.n_internal))
            series = neumann_fundamental(spec.p00)
            assert np.max(np.abs(direct - series)) <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_6_single_state_model_end_to_end():
    with criterion(
        6,
        "n_internal=1 model with immediate absorption: exact analytic values, "
        "zero-variance simulation",
    ):
        spec = ChainSpec(
            n_internal=1, p00=[[0.0]], p01=[[0.5, 0.5]], c=[5.0], d0=[-1.0], d1=[-1.0]
        )
        analysis = analyze_chain(spec)
        assert analysis.b.tolist() == [[0.5, 0.5]]
        assert analysis.r.tolist() == [5.0]

        coeffs = cost_coefficients(spec, analysis)
        assert coeffs.c_table.tolist() == [[4.0]]

        control = solve_tuning(spec)
        assert (control.m0_star, control.m1_star) == (2, 2)
        assert control.value == 4.0

        strategy = degenerate_strategy(2, 2, 1)
        assert indicator(strategy, spec, analysis) == 4.0

        stats = simulate(spec, strategy, cycles=10_000, seed=0)
        assert stats.i_hat == 4.0
        assert stats.std_error == 0.0
        assert stats.total_income == 4.0 * 10_000

        report = refute_with_random_strategies(spec, control, samples=1_000, seed=0)
        assert report.gap == 0.0
        assert report.violations == 0


def test_criterion_7_error_paths(tmp_path, capsys):
    with criterion(
        7,
        "five failure codes each triggered by a fixture and mapped to the "
        "documented exit statuses",
    ):
        def write(name: str, doc: dict) -> str:
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return str(path)

        base = {"c": [1.0], "d0": [-1.0], "d1": [-1.0], "n_internal": 1}

        # NO_ABSORPTION: validation failure, exit 1
        path = write("no_absorption.json", {**base, "p00": [[1.0]], "p01": [[0.0, 0.0]]})
        status = main(["validate", path])
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert any(e["code"] == "NO_ABSORPTION" for e in doc["errors"])

        # SINGULAR_SYSTEM: passes validation (positive entries), fails solve
        path = write("singular.json", {**base, "p00": [[1.0]], "p01": [[5e-301, 5e-301]]})
        status = main(["analyze", path])
        doc = json.loads(capsys.readouterr().out)
        assert status == 3
        assert doc["error"]["code"] == "SINGULAR_SYSTEM"

        # B_NOT_POSITIVE: absorption certain but one-sided
        path = write("one_sided.json", {**base, "p00": [[0.0]], "p01": [[1.0, 0.0]]})
        status = main(["solve", path])
        doc = json.loads(capsys.readouterr().out)
        assert status == 3
        assert doc["error"]["code"] == "B_NOT_POSITIVE"

        # DEGENERATE_CHAIN: each boundary feeds only itself
        path = write(
            "split.json",
            {
                "n_internal": 2,
                "p00": [[0.0, 0.0], [0.0, 0.0]],
                "p01": [[1.0, 0.0], [0.0, 1.0]],
                "c": [1.0, 1.0],
                "d0": [-1.0, -1.0],
                "d1": [-1.0, -1.0],
            },
        )
        status = main(["indicator", path, "--degenerate", "2", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert status == 3
        assert doc["error"]["code"] == "DEGENERATE_CHAIN"

        # CYCLE_LIMIT: near-certain self-loop against a small segment limit
        path = write(
            "trap.json", {**base, "p00": [[0.999999999999]], "p01": [[5e-13, 5e-13]]}
        )
        status = main(
            ["simulate", path, "--degenerate", "2", "2", "--cycles", "1",
             "--seed", "1", "--segment-limit", "1000"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert status == 3
        assert doc["error"]["code"] == "CYCLE_LIMIT"
