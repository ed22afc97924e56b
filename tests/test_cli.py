from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuning import simulate, solve_tuning
from tuning.cli import main

from conftest import (
    ONE_SIDED_EXITS, OPPOSITE_COSTS, OVERFLOW_GAP, OVERFLOW_RESIDUAL, OVERFLOW_REWARD, OVERFLOW_TABLE,
    OVERFLOWING_SAMPLES, REFERENCE, TRAP_AT_LABEL_2, child_env,
)
from strats import edge_models


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    status = main(list(argv))
    return status, capsys.readouterr().out


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture
def uniform_strategy_file(tmp_path):
    return write_json(tmp_path / "uniform.json", {"alpha0": [0.5, 0.5], "alpha1": [0.5, 0.5]})


_STATE_FINDINGS_BASE = {"n_internal": 3, "c": [1.0, 2.0, 3.0], "d0": [-1.0] * 3, "d1": [-1.0] * 3}


class TestValidateCommand:
    def test_clean_model(self, capsys, reference_model_file):
        status, out = run_cli(capsys, "validate", str(reference_model_file))
        assert status == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["errors"] == []

    def test_invalid_model_exits_one_with_report(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {
                "n_internal": 1,
                "p00": [[0.5]],
                "p01": [[0.2, 0.2]],  # row sums to 0.9
                "c": [1.0],
                "d0": [-1.0],
                "d1": [-1.0],
            },
        )
        status, out = run_cli(capsys, "validate", str(path))
        assert status == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["errors"][0]["code"] == "ROW_SUM"
        assert doc["errors"][0]["where"] == 2

    @pytest.mark.parametrize("model, errors", [
        (
            {  # PROB_RANGE in both blocks, ROW_SUM on two rows
                **_STATE_FINDINGS_BASE,
                "p00": [[-0.1, 0.5, 0.1], [0.2, 0.2, 0.2], [0.1, 0.1, 0.1]],
                "p01": [[0.3, 0.2], [1.5, -0.1], [0.3, 0.3]],
            },
            [
                ("PROB_RANGE", "p00 row for state 2 has entries outside [0, 1]", 2),
                ("PROB_RANGE", "p01 row for state 3 has entries outside [0, 1]", 3),
                ("ROW_SUM", "transition row for state 3 sums to 2.0, not 1", 3),
                ("ROW_SUM", "transition row for state 4 sums to 0.9, not 1", 4),
            ],
        ),
        (
            {  # states 2 and 4 keep to themselves, state 3's row sums to 0.9
                **_STATE_FINDINGS_BASE,
                "p00": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]],
                "p01": [[0.0, 0.0], [0.2, 0.2], [0.0, 0.0]],
            },
            [
                ("ROW_SUM", "transition row for state 3 sums to 0.9, not 1", 3),
                ("NO_ABSORPTION", "state 2 cannot reach the boundary, absorption is not certain", 2),
                ("NO_ABSORPTION", "state 4 cannot reach the boundary, absorption is not certain", 4),
            ],
        ),
        (
            {  # state 2's p00 sum overflows to inf and its p01 sum to -inf: a NaN row sum is a miss
                "n_internal": 2,
                "p00": [[1.7e308, 1.7e308], [0.5, 0.0]],
                "p01": [[-1.7e308, -1.7e308], [0.25, 0.25]],
                "c": [1.0, 2.0], "d0": [-1.0] * 2, "d1": [-1.0] * 2,
            },
            [
                ("PROB_RANGE", "p00 row for state 2 has entries outside [0, 1]", 2),
                ("PROB_RANGE", "p01 row for state 2 has entries outside [0, 1]", 2),
                ("ROW_SUM", "transition row for state 2 sums to nan, not 1", 2),
            ],
        ),
        (
            {**REFERENCE, "c": [1.0], "d0": [-0.5, float("nan")]},  # every field's finding in one pass
            [
                ("BAD_SHAPE", "c must have length 2, got shape (1,)", "c"),
                ("NOT_FINITE", "d0 contains NaN or infinity", "d0"),
            ],
        ),
    ], ids=["range-and-sums", "no-absorption", "nan-row-sum", "mixed-fields"])
    def test_state_findings_are_pinned(self, capsys, tmp_path, model, errors):
        # text, where and order of every finding; a state-indexed one names its state label
        status, out = run_cli(capsys, "validate", str(write_json(tmp_path / "bad.json", model)))
        assert status == 1
        assert json.loads(out) == {
            "valid": False,
            "errors": [{"code": code, "message": message, "where": where} for code, message, where in errors],
            "warnings": [],
        }

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("count", [2.5, "2", True])
    def test_non_integer_count_exits_one(self, capsys, tmp_path, reference_model_file, command, count):
        doc = json.loads(reference_model_file.read_text())
        doc["n_internal"] = count
        status, out = run_cli(capsys, command, str(write_json(tmp_path / "count.json", doc)))
        assert status == 1
        report = json.loads(out)
        assert report["valid"] is False
        assert [e["code"] for e in report["errors"]] == ["BAD_COUNT"]

    @pytest.mark.parametrize("c, status, errors", [
        ([100000000000000000000, 0], 0, []),
        # 400 digits, read as JSON reads 1e400
        ([10**399, 0], 1, [{"code": "NOT_FINITE", "message": "c contains NaN or infinity", "where": "c"}]),
    ], ids=["beyond-int64", "beyond-float"])
    def test_integer_entry_is_a_number(self, capsys, tmp_path, reference_model_file, c, status, errors):
        doc = json.loads(reference_model_file.read_text())
        doc["c"] = c
        assert main(["validate", str(write_json(tmp_path / "big.json", doc))]) == status
        captured = capsys.readouterr()
        assert (json.loads(captured.out)["errors"], captured.err) == (errors, "")

    def test_integer_below_int64_solves_as_its_float(self, capsys, tmp_path, reference_model_file):
        outs = []
        for name, c in (("int", [-9223372036854775809, 0]), ("float", [-9.223372036854776e18, 0])):
            doc = json.loads(reference_model_file.read_text())
            doc["c"] = c
            status, out = run_cli(capsys, "solve", str(write_json(tmp_path / f"{name}.json", doc)))
            assert status == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["value"] == -6.148914691236517e18

    def test_integer_strategy_entry_is_a_number(self, capsys, tmp_path, reference_model_file):
        strategy = write_json(tmp_path / "big.json", {"alpha0": [100000000000000000000, 0], "alpha1": [0.5, 0.5]})
        status, out = run_cli(capsys, "simulate", str(reference_model_file), "--strategy", str(strategy))
        assert status == 1
        assert [e["code"] for e in json.loads(out)["errors"]] == ["NOT_NORMALIZED"]

    @pytest.mark.parametrize("text, message", [
        ("{not json", "model file is not valid JSON: Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"),
        ("[1, 2]", "model document must be a JSON object, got list"),
        ("null", "model document must be a JSON object, got NoneType"),
        ('"abc"', "model document must be a JSON object, got str"),
        ("0.5", "model document must be a JSON object, got float"),
    ], ids=["not-json", "list", "null", "string", "number"])
    def test_unparseable_file_exits_one(self, capsys, tmp_path, text, message):
        path = tmp_path / "mangled.json"
        path.write_text(text)
        status, out = run_cli(capsys, "validate", str(path))
        assert status == 1
        assert json.loads(out)["errors"] == [{"code": "BAD_FILE", "message": message, "where": None}]

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        status, out = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
        assert status == 2
        assert json.loads(out)["error"]["code"] == "IO_ERROR"


class TestAnalyzeCommand:
    def test_document_values(self, capsys, reference_model_file):
        status, out = run_cli(capsys, "analyze", str(reference_model_file))
        assert status == 0
        doc = json.loads(out)
        assert abs(doc["b"][0][0] - 0.5) <= 1e-12
        assert abs(doc["b"][1][1] - 2 / 3) <= 1e-12
        assert abs(doc["r"][1] - 10 / 3) <= 1e-12
        assert doc["positivity_ok"] is True

    def test_positivity_findings_are_pinned(self, capsys, tmp_path):
        # state 2 exits only to boundary 0, state 3 only to boundary 1: the
        # list runs by state, then by boundary
        model = {
            **_STATE_FINDINGS_BASE,
            "p00": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.25, 0.25, 0.0]],
            "p01": [[0.5, 0.0], [0.0, 0.5], [0.25, 0.25]],
        }
        status, out = run_cli(capsys, "analyze", str(write_json(tmp_path / "model.json", model)))
        assert status == 0
        doc = json.loads(out)
        assert doc["positivity_ok"] is False
        assert doc["positivity"] == [
            {
                "code": "B_NOT_POSITIVE",
                "message": "absorption probability from state 2 to boundary 1 is 0.0 (<= 1e-12)",
                "where": 2,
            },
            {
                "code": "B_NOT_POSITIVE",
                "message": "absorption probability from state 3 to boundary 0 is 0.0 (<= 1e-12)",
                "where": 3,
            },
        ]

    def test_csv_option_is_usage_error(self, capsys, reference_model_file, tmp_path):
        # b and r reach the user through the document alone
        csv_path = tmp_path / "per_state.csv"
        status, out = run_cli(capsys, "analyze", str(reference_model_file), "--csv", str(csv_path))
        assert status == 2
        assert "--csv" in usage_message(out)
        assert not csv_path.exists()

    def test_echo_model_round_trips_byte_identically(self, capsys, reference_model_file, tmp_path):
        echo_path = tmp_path / "echo.json"
        status, first = run_cli(
            capsys, "analyze", str(reference_model_file), "--echo-model", str(echo_path)
        )
        assert status == 0
        status, second = run_cli(capsys, "analyze", str(echo_path))
        assert status == 0
        assert first == second


class TestIndicatorCommand:
    @pytest.mark.parametrize(
        "route", [None, "embedded", "ratio", "fractional"], ids=["default", "embedded", "ratio", "fractional"]
    )
    def test_degenerate_value(self, capsys, reference_model_file, route):
        extra = () if route is None else ("--route", route)
        status, out = run_cli(
            capsys, "indicator", str(reference_model_file), "--degenerate", "3", "3", *extra
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["route"] == (route or "embedded")
        assert abs(doc["value"] - 43 / 15) <= 1e-12

    def test_routes_agree(self, capsys, reference_model_file, uniform_strategy_file):
        values = []
        for route in ("embedded", "ratio", "fractional"):
            status, out = run_cli(
                capsys,
                "indicator",
                str(reference_model_file),
                "--strategy",
                str(uniform_strategy_file),
                "--route",
                route,
            )
            assert status == 0
            values.append(json.loads(out)["value"])
        assert max(values) - min(values) <= 1e-12

    def test_full_precision_round_trip(self, capsys, reference_model_file, reference_spec):
        status, out = run_cli(
            capsys, "indicator", str(reference_model_file), "--degenerate", "3", "3"
        )
        from tuning import analyze_chain, degenerate_strategy, indicator

        exact = indicator(
            degenerate_strategy(3, 3, 2), reference_spec, analyze_chain(reference_spec)
        )
        assert json.loads(out)["value"] == exact

    def test_out_of_range_labels_are_usage_errors(self, capsys, reference_model_file):
        status, out = run_cli(
            capsys, "indicator", str(reference_model_file), "--degenerate", "9", "9"
        )
        assert status == 2
        assert json.loads(out)["error"]["code"] == "USAGE"

    def test_invalid_strategy_file_exits_one(self, capsys, reference_model_file, tmp_path):
        path = write_json(tmp_path / "bad_strategy.json", {"alpha0": [0.6, 0.6], "alpha1": [0.5, 0.5]})
        status, out = run_cli(
            capsys, "indicator", str(reference_model_file), "--strategy", str(path)
        )
        assert status == 1
        assert json.loads(out)["errors"][0]["code"] == "NOT_NORMALIZED"


class TestTableCommand:
    def test_value_table_layout(self, capsys, reference_model_file):
        status, out = run_cli(capsys, "table", str(reference_model_file))
        assert status == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m0\\m1", "2", "3"]
        assert rows[1][0] == "2"
        assert abs(float(rows[1][1]) - 1.9) <= 1e-12
        assert abs(float(rows[2][2]) - 43 / 15) <= 1e-12

    def test_denominator_table(self, capsys, reference_model_file):
        status, out = run_cli(capsys, "table", str(reference_model_file), "--which", "b")
        assert status == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert abs(float(rows[1][1]) - 1.0) <= 1e-12
        assert abs(float(rows[1][2]) - 5 / 6) <= 1e-12

    @pytest.mark.parametrize("which", ["c", "a", "b"])
    def test_pair_that_never_switches_fails_as_in_indicator(self, capsys, tmp_path, which):
        path = str(write_json(tmp_path / "model.json", ONE_SIDED_EXITS))
        status, out = run_cli(capsys, "table", path, "--which", which)
        assert status == 3
        assert json.loads(out)["error"] == {
            "code": "DEGENERATE_CHAIN",
            "message": "boundary chain has off-diagonal mass 4e-16, no unique stationary law",
        }
        for route in ("embedded", "ratio", "fractional"):
            status, route_out = run_cli(capsys, "indicator", path, "--degenerate", "2", "3", "--route", route)
            assert (status, route_out) == (3, out)


class TestSolveCommand:
    def test_maximize(self, capsys, reference_model_file):
        status, out = run_cli(capsys, "solve", str(reference_model_file), "--direction", "max")
        assert status == 0
        doc = json.loads(out)
        assert doc["m0_star"] == 3
        assert doc["m1_star"] == 3
        assert abs(doc["value"] - 43 / 15) <= 1e-12
        assert doc["direction"] == "maximize"

    def test_minimize(self, capsys, reference_model_file):
        status, out = run_cli(capsys, "solve", str(reference_model_file), "--direction", "min")
        doc = json.loads(out)
        assert (doc["m0_star"], doc["m1_star"]) == (2, 2)

    def test_value_round_trips_exactly(self, capsys, reference_model_file, reference_spec):
        status, out = run_cli(capsys, "solve", str(reference_model_file))
        assert json.loads(out)["value"] == solve_tuning(reference_spec).value

    def test_refutation_block(self, capsys, reference_model_file):
        status, out = run_cli(
            capsys,
            "solve",
            str(reference_model_file),
            "--refute-samples",
            "2000",
            "--seed",
            "17",
        )
        assert status == 0
        rep = json.loads(out)["refutation"]
        assert rep["samples"] == 2000
        assert rep["seed"] == 17
        assert rep["violations"] == 0
        assert rep["gap"] >= -1e-9

    def test_refutation_near_the_float_limit_is_finite(self, capsys, tmp_path):
        path = write_json(tmp_path / "huge.json", {
            "n_internal": 2, "p00": [[0, 0], [0, 0]], "p01": [[0.5, 0.5], [0.5, 0.5]],
            "c": [0, 0], "d0": [1e308, 1e308], "d1": [1e308, 1e308],
        })
        status, out = run_cli(capsys, "solve", str(path), "--refute-samples", "100", "--seed", "1")
        assert status == 0
        doc = json.loads(out)
        assert doc["value"] == 1e308
        # every strategy is worth 1e308, so the gap is rounding alone
        assert abs(doc["refutation"]["gap"]) <= 4 * np.spacing(1e308)

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_finite_table_with_overflowing_q_values_is_solved(self, capsys, tmp_path, direction):
        path = write_json(tmp_path / "model.json", OPPOSITE_COSTS)
        status, out = run_cli(capsys, "solve", str(path), "--direction", direction)
        assert status == 0
        doc = json.loads(out)
        assert (doc["m0_star"], doc["m1_star"], doc["value"]) == (2, 2, 0.0)
        status, out = run_cli(capsys, "table", str(path))
        assert (status, out) == (0, "m0\\m1,2\n2,0.0\n")

    def test_zero_minimize_gap_is_positive_zero(self, capsys, tmp_path):
        # one state, one strategy: every sample equals the minimum exactly
        path = write_json(tmp_path / "one.json", {
            "n_internal": 1, "p00": [[0.2]], "p01": [[0.3, 0.5]], "c": [1.0], "d0": [-0.5], "d1": [-0.25],
        })
        status, out = run_cli(capsys, "solve", str(path), "--direction", "min", "--refute-samples", "100")
        assert status == 0
        assert '"gap": 0.0,' in out


class TestSimulateCommand:
    def test_document_shape(self, capsys, reference_model_file):
        status, out = run_cli(
            capsys,
            "simulate",
            str(reference_model_file),
            "--degenerate",
            "3",
            "3",
            "--cycles",
            "2000",
            "--seed",
            "42",
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["cycles"] == 2000
        assert sum(doc["boundary_counts"]) == 2000
        assert doc["seed"] == 42
        assert doc["replications"] == 1
        assert doc["i_hat"] == doc["total_income"] / doc["cycles"]

    def test_deterministic_output(self, capsys, reference_model_file):
        argv = (
            "simulate",
            str(reference_model_file),
            "--degenerate",
            "3",
            "3",
            "--cycles",
            "100000",
            "--seed",
            "42",
        )
        status, first = run_cli(capsys, *argv)
        assert status == 0
        status, second = run_cli(capsys, *argv)
        assert first == second

    def test_matches_library_replications(self, capsys, reference_model_file, reference_spec):
        from tuning import degenerate_strategy

        status, out = run_cli(
            capsys,
            "simulate",
            str(reference_model_file),
            "--degenerate",
            "3",
            "3",
            "--cycles",
            "500",
            "--replications",
            "3",
            "--seed",
            "6",
        )
        doc = json.loads(out)
        stats = simulate(
            reference_spec, degenerate_strategy(3, 3, 2), 500, seed=6, replications=3
        )
        assert doc["cycles"] == stats.cycles == 1500
        assert doc["total_income"] == stats.total_income
        assert doc["std_error"] == stats.std_error

    @pytest.mark.parametrize("command", [("simulate", "--degenerate", "3", "3"), ("analyze",), ("solve",)])
    def test_income_overflow_exits_three(self, capsys, tmp_path, reference_model_file, command):
        doc = json.loads(reference_model_file.read_text())
        doc["c"] = [1e308, 1e308]
        path = write_json(tmp_path / "huge.json", doc)
        status, out = run_cli(capsys, command[0], str(path), *command[1:])
        assert status == 3
        assert json.loads(out)["error"]["code"] == "OVERFLOW"

    @pytest.mark.parametrize("entry", [["1.0", 2.0], [True, 2.0]], ids=["string", "bool"])
    @pytest.mark.parametrize("command", [("validate",), ("simulate", "--degenerate", "3", "3")])
    def test_string_model_entry_exits_one(self, capsys, tmp_path, reference_model_file, command, entry):
        doc = json.loads(reference_model_file.read_text())
        doc["c"] = entry
        path = write_json(tmp_path / "strings.json", doc)
        status, out = run_cli(capsys, command[0], str(path), *command[1:])
        assert status == 1
        assert [e["code"] for e in json.loads(out)["errors"]] == ["NOT_NUMERIC"]

    @pytest.mark.parametrize("entry", [["0", "1"], [True, 0.0]], ids=["string", "bool"])
    def test_string_strategy_entry_exits_one(self, capsys, tmp_path, reference_model_file, entry):
        strategy = write_json(tmp_path / "strings.json", {"alpha0": entry, "alpha1": [0.5, 0.5]})
        status, out = run_cli(capsys, "simulate", str(reference_model_file), "--strategy", str(strategy))
        assert status == 1
        assert [e["code"] for e in json.loads(out)["errors"]] == ["NOT_NUMERIC"]

    def test_cycle_limit_exits_three(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "trap.json",
            {
                "n_internal": 1,
                "p00": [[0.999999999999]],
                "p01": [[5e-13, 5e-13]],
                "c": [1.0],
                "d0": [-1.0],
                "d1": [-1.0],
            },
        )
        status, out = run_cli(
            capsys,
            "simulate",
            str(path),
            "--degenerate",
            "2",
            "2",
            "--cycles",
            "1",
            "--seed",
            "1",
            "--segment-limit",
            "1000",
        )
        assert status == 3
        assert json.loads(out)["error"]["code"] == "CYCLE_LIMIT"

    def test_unvisited_slow_state_costs_no_steps(self, capsys, tmp_path):
        # every run starts at boundary 0, so no segment walks the trap at label 2
        path = write_json(tmp_path / "trap.json", TRAP_AT_LABEL_2)
        status, out = run_cli(
            capsys, "simulate", str(path), "--degenerate", "3", "3", "--cycles", "1000", "--segment-limit", "1000",
        )
        assert status == 0
        doc = json.loads(out)
        assert (doc["i_hat"], doc["std_error"], doc["total_income"]) == (1.0, 0.0, 1000.0)


class TestTrajectoryCommand:
    def test_csv_layout(self, capsys, reference_model_file):
        status, out = run_cli(
            capsys,
            "trajectory",
            str(reference_model_file),
            "--degenerate",
            "3",
            "3",
            "--max-steps",
            "50",
            "--seed",
            "3",
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "step,state,event_kind,income_delta"
        assert len(lines) == 51
        # step 0 is the transfer from boundary 0 to m0 = 3, worth d0[1] + c[1]
        assert lines[1] == "0,3,transfer,1.0"


class TestSeedComesFromTheOptionOnly:
    @pytest.mark.parametrize("env", [None, "42", "x"], ids=["unset", "set", "bad"])
    @pytest.mark.parametrize(
        "command",
        [
            ("solve", "--refute-samples", "50"),
            ("simulate", "--degenerate", "3", "3", "--cycles", "500"),
            ("trajectory", "--degenerate", "3", "3", "--max-steps", "30"),
        ],
        ids=["solve", "simulate", "trajectory"],
    )
    def test_default_seed_is_zero_whatever_the_environment(
        self, capsys, reference_model_file, monkeypatch, command, env
    ):
        if env is None:
            monkeypatch.delenv("TUNING_SEED", raising=False)
        else:
            monkeypatch.setenv("TUNING_SEED", env)
        argv = (command[0], str(reference_model_file), *command[1:])
        status, default = run_cli(capsys, *argv)
        status_zero, explicit = run_cli(capsys, *argv, "--seed", "0")
        assert status == status_zero == 0
        assert default == explicit


class TestNumericFailureExits:
    def test_singular_system(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "singular.json",
            {
                "n_internal": 1,
                "p00": [[1.0]],
                "p01": [[5e-301, 5e-301]],  # positive, so validation passes
                "c": [1.0],
                "d0": [-1.0],
                "d1": [-1.0],
            },
        )
        status, out = run_cli(capsys, "analyze", str(path))
        assert status == 3
        assert json.loads(out)["error"]["code"] == "SINGULAR_SYSTEM"

    def test_b_not_positive(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "one_sided.json",
            {
                "n_internal": 1,
                "p00": [[0.0]],
                "p01": [[1.0, 0.0]],
                "c": [1.0],
                "d0": [-1.0],
                "d1": [-1.0],
            },
        )
        status, out = run_cli(capsys, "solve", str(path))
        assert status == 3
        assert json.loads(out)["error"]["code"] == "B_NOT_POSITIVE"

    def test_degenerate_chain(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "split.json",
            {
                "n_internal": 2,
                "p00": [[0.0, 0.0], [0.0, 0.0]],
                "p01": [[1.0, 0.0], [0.0, 1.0]],
                "c": [1.0, 1.0],
                "d0": [-1.0, -1.0],
                "d1": [-1.0, -1.0],
            },
        )
        status, out = run_cli(
            capsys, "indicator", str(path), "--degenerate", "2", "3"
        )
        assert status == 3
        assert json.loads(out)["error"]["code"] == "DEGENERATE_CHAIN"


class TestFloatRange:
    @pytest.mark.parametrize("route", ["embedded", "ratio", "fractional"])
    def test_overflowing_reward_of_a_degenerate_chain_fails_alike_on_every_route(self, capsys, tmp_path, route):
        # the boundary chain never switches sides and the reward d0 + r overflows
        path = write_json(tmp_path / "split.json", {
            "n_internal": 2, "p00": [[0.0, 0.0], [0.0, 0.0]], "p01": [[1.0, 0.0], [0.0, 1.0]],
            "c": [1.7e308, 1.0], "d0": [1.7e308, 1.0], "d1": [1.0, 1.0],
        })
        status, out = run_cli(capsys, "indicator", str(path), "--degenerate", "2", "3", "--route", route)
        assert status == 3
        assert json.loads(out)["error"]["code"] == "OVERFLOW"

    @pytest.mark.parametrize("model, argv", [
        ("reward", "indicator --degenerate 2 3"),
        ("reward", "indicator --degenerate 2 3 --route ratio"),
        ("reward", "indicator --degenerate 2 3 --route fractional"),
        ("reward", "table"),
        ("reward", "solve"),
        ("reward", "trajectory --degenerate 2 3"),
        ("table", "indicator --degenerate 2 3 --route ratio"),
        ("table", "indicator --degenerate 2 3 --route fractional"),
        ("table", "table"),
        ("table", "solve"),
        ("residual", "analyze"),
        ("residual", "solve"),
        ("gap", "solve --refute-samples 1 --seed 3"),
    ])
    def test_overflow_exits_three(self, capsys, tmp_path, model, argv):
        doc = {"reward": OVERFLOW_REWARD, "table": OVERFLOW_TABLE, "residual": OVERFLOW_RESIDUAL, "gap": OVERFLOW_GAP}[model]
        command, *rest = argv.split()
        status, out = run_cli(capsys, command, str(write_json(tmp_path / "model.json", doc)), *rest)
        assert status == 3
        assert json.loads(out)["error"]["code"] == "OVERFLOW"

    def test_refutation_beside_overflowing_samples_is_finite(self, capsys, tmp_path):
        path = write_json(tmp_path / "model.json", OVERFLOWING_SAMPLES)
        argv = ["--direction", "min", "--refute-samples", "200", "--seed", "11"]
        status, out = run_cli(capsys, "solve", str(path), *argv)
        assert status == 0
        assert json.loads(out, parse_constant=_reject_constant)["refutation"]["violations"] == 0

    def test_finite_minimum_beside_an_overflowed_entry_is_solved(self, capsys, tmp_path):
        path = write_json(tmp_path / "model.json", OVERFLOW_TABLE)
        status, out = run_cli(capsys, "solve", str(path), "--direction", "min")
        assert status == 0
        assert json.loads(out) == {
            "direction": "minimize", "m0_star": 3, "m1_star": 2, "value": 1.4999999999999998e308,
        }

    @pytest.mark.parametrize("direction", ["max", "min"])
    @pytest.mark.parametrize(
        "model",
        [{"n_internal": 1, "p00": [[0]], "p01": [[0.5, 0.5]], "c": [0], "d0": [-1], "d1": [1]}, OPPOSITE_COSTS],
        ids=["cancelling-costs", "opposite-costs"],
    )
    def test_refutation_at_a_zero_optimum_prints_no_negative_zero(self, capsys, tmp_path, model, direction):
        path = write_json(tmp_path / "model.json", model)
        status, out = run_cli(capsys, "solve", str(path), "--direction", direction, "--refute-samples", "10")
        assert status == 0
        assert json.loads(out)["refutation"]["best_observed"] == 0.0
        assert "-0.0" not in out

    def test_embedded_route_of_a_finite_value_is_kept(self, capsys, tmp_path):
        path = write_json(tmp_path / "model.json", OVERFLOW_TABLE)
        status, out = run_cli(capsys, "indicator", str(path), "--degenerate", "2", "3")
        assert status == 0
        assert json.loads(out)["value"] == 1.5000000000000002e308


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in a document")


def strategy_sides(n: int) -> dict[str, str | None]:
    """One strategy side as JSON text, by name: a distribution or a mutation
    of one (true/false, strings, NaN or Infinity tokens, a sum that
    overflows, negative mass, a wrong length, not a list), or None for a
    missing key."""
    even = [1.0 / n] * n
    return {
        "even": json.dumps(even),
        "vertex": json.dumps([1.0] + [0.0] * (n - 1)),
        "bools": json.dumps([True] + [False] * (n - 1)),
        "strings": json.dumps([str(x) for x in even]),
        "nan": "[" + ", ".join(["NaN"] + ["0.5"] * (n - 1)) + "]",
        "infinities": "[" + ", ".join(["Infinity"] + ["-Infinity"] * (n - 1)) + "]",
        "overflowing-sum": json.dumps([1.7e308] * n),  # a sum that overflows to inf for n > 1
        "negative-mass": json.dumps([2.0, -1.0] + [0.0] * (n - 2) if n > 1 else [-1.0]),
        "too-long": json.dumps(even + [0.0]),
        "too-short": json.dumps(even[1:]),
        "nested": json.dumps([even]),
        "null": "null",
        "number": "0.5",
        "missing": None,
    }


def strategy_object(alpha0: str | None, alpha1: str | None) -> str:
    """A strategy file's JSON object from its two sides' texts."""
    texts = {"alpha0": alpha0, "alpha1": alpha1}
    return "{" + ", ".join(f'"{key}": {text}' for key, text in texts.items() if text is not None) + "}"


@st.composite
def strategy_documents(draw, n: int) -> str:
    """Strategy files as JSON text: two drawn sides, sometimes not an object."""
    sides = list(strategy_sides(n).values())
    body = strategy_object(draw(st.sampled_from(sides)), draw(st.sampled_from(sides)))
    return draw(st.sampled_from([body] * 8 + ["[]", "null"]))


_SIDES = strategy_sides(REFERENCE["n_internal"])
# every side as each key beside an even other side, and the documents that
# are not an object
_PINNED_STRATEGIES = {
    **{f"alpha0-{name}": strategy_object(side, _SIDES["even"]) for name, side in _SIDES.items()},
    **{f"alpha1-{name}": strategy_object(_SIDES["even"], side) for name, side in _SIDES.items()},
    "top-level-list": "[]",
    "top-level-null": "null",
}


def _assert_strategy_file_ends_in_documents(model: dict, strategy_text: str) -> None:
    """indicator, simulate and trajectory with this strategy file each exit
    0, 1 or 3 with one finite document, with every warning an error."""
    invocations = [
        ["indicator"],
        ["simulate", "--cycles", "50", "--segment-limit", "2000"],
        ["trajectory", "--max-steps", "30"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "model.json", model)
        strategy = Path(tmp) / "strategy.json"
        strategy.write_text(strategy_text)
        for argv in invocations:
            out = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out):
                warnings.simplefilter("error")
                status = main([argv[0], str(path), "--strategy", str(strategy), *argv[1:]])
            text = out.getvalue()
            assert status in (0, 1, 3), (argv, text)
            if status == 0 and argv[0] == "trajectory":
                assert "inf" not in text and "nan" not in text, (argv, text)
            else:
                json.loads(text, parse_constant=_reject_constant)


class TestEveryInputEndsInADocument:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(model=edge_models(), data=st.data())
    def test_every_command_exits_with_a_finite_document(self, model, data):
        label = st.integers(min_value=2, max_value=model["n_internal"] + 1)
        pick = ["--degenerate", str(data.draw(label)), str(data.draw(label))]
        invocations = [
            ["validate"], ["analyze"], ["table"],
            *(["indicator", *pick, "--route", route] for route in ("embedded", "ratio", "fractional")),
            *(["solve", "--direction", d, "--refute-samples", "20"] for d in ("max", "min")),
            ["simulate", *pick, "--cycles", "50", "--segment-limit", "2000"],
            ["trajectory", *pick, "--max-steps", "30"],
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp) / "model.json", model)
            for argv in invocations:
                out = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(out):
                    warnings.simplefilter("error")
                    status = main([argv[0], str(path), *argv[1:]])
                text = out.getvalue()
                assert status in (0, 1, 3), (argv, text)
                if status == 0 and argv[0] in ("table", "trajectory"):
                    assert "inf" not in text and "nan" not in text, (argv, text)
                else:
                    json.loads(text, parse_constant=_reject_constant)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=edge_models(), data=st.data())
    def test_every_strategy_file_exits_with_a_finite_document(self, model, data):
        _assert_strategy_file_ends_in_documents(model, data.draw(strategy_documents(model["n_internal"])))

    @pytest.mark.parametrize("strategy_text", _PINNED_STRATEGIES.values(), ids=_PINNED_STRATEGIES.keys())
    def test_every_strategy_side_meets_a_valid_model(self, strategy_text):
        # the property pairs a side with a valid model only when its draw does
        _assert_strategy_file_ends_in_documents(REFERENCE, strategy_text)


# a valid invocation of each command on the reference model: its option
# groups after the model path
_VALID_GROUPS = {
    "validate": [],
    "analyze": [],
    "indicator": [["--degenerate", "2", "3"], ["--route", "ratio"]],
    "table": [["--which", "a"]],
    "solve": [["--direction", "min"], ["--refute-samples", "20"], ["--seed", "1"]],
    "simulate": [["--degenerate", "3", "2"], ["--cycles", "50"], ["--replications", "2"],
                 ["--segment-limit", "2000"], ["--seed", "1"]],
    "trajectory": [["--degenerate", "3", "3"], ["--max-steps", "30"], ["--seed", "1"]],
}
# negative, zero, non-integer and out-of-range counts and labels, unknown choices
_BAD_VALUES = ["-1", "0", "1", "4", "99", "1.5", "1e3", "abc", "", "sideways"]
# unknown flags (the removed --csv among them), a second strategy source,
# bad choices and the output files, in every directory state
_EXTRA_GROUPS = [
    ["--csv", "{tmp}/side.csv"], ["--csv"], ["--bogus"], ["-x", "1"],
    ["--route", "sideways"], ["--which", "d"], ["--direction", "up"], ["--seed", "-4"],
    ["--strategy", "{tmp}/strategy.json"], ["--strategy", "{tmp}/absent.json"],
    ["--strategy", "{tmp}/garbage.json"], ["--echo-model", "{tmp}/echo.json"],
    ["--echo-model", "{tmp}/nodir/echo.json"], ["-o", "{tmp}/out"], ["-o", "{tmp}/nodir/out"],
]
# their paths stay inside the test's directory
_PATH_OPTIONS = ("--csv", "--strategy", "--echo-model", "-o")
# a valid model, a missing file, a file that is not JSON, a directory, a
# valid model whose results overflow
_MODEL_PATHS = ["{tmp}/model.json", "{tmp}/absent.json", "{tmp}/garbage.json", "{tmp}", "{tmp}/overflow.json"]


@st.composite
def mutated_argv(draw) -> list[str]:
    """One command's valid argv with one to three mutations: an option group
    dropped or doubled, a value replaced by a bad one, a group added, or the
    model path replaced."""
    command = draw(st.sampled_from(sorted(_VALID_GROUPS)))
    groups = [list(group) for group in _VALID_GROUPS[command]]
    model = _MODEL_PATHS[0]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["drop", "double", "value", "add", "model"]))
        if kind == "add":
            groups.append(list(draw(st.sampled_from(_EXTRA_GROUPS))))
        elif kind == "model":
            model = draw(st.sampled_from(_MODEL_PATHS[1:]))
        elif groups:
            i = draw(st.integers(min_value=0, max_value=len(groups) - 1))
            if kind == "drop":
                del groups[i]
            elif kind == "double":
                groups.insert(i, list(groups[i]))
            elif len(groups[i]) > 1 and groups[i][0] not in _PATH_OPTIONS:
                j = draw(st.integers(min_value=1, max_value=len(groups[i]) - 1))
                groups[i][j] = draw(st.sampled_from(_BAD_VALUES))
    return [command, model, *(token for group in groups for token in group)]


class TestEveryArgvEndsInADocumentedExit:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(argv=mutated_argv())
    def test_mutated_argv_exits_with_one_document(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            write_json(Path(tmp) / "model.json", REFERENCE)
            write_json(Path(tmp) / "overflow.json", OVERFLOW_REWARD)
            write_json(Path(tmp) / "strategy.json", {"alpha0": [0.5, 0.5], "alpha1": [1.0, 0.0]})
            (Path(tmp) / "garbage.json").write_text("{not json")
            argv = [token.format(tmp=tmp) for token in argv]
            out = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                status = main(argv)
            assert status in (0, 1, 2, 3), argv
            output_file = Path(tmp) / "out"
            # the document goes to exactly one of stdout and -o
            assert (out.getvalue() == "") == output_file.exists(), argv
            text = out.getvalue() or output_file.read_text(encoding="utf-8")
            assert not (Path(tmp) / "side.csv").exists(), argv
        if status == 0 and argv[0] in ("table", "trajectory"):
            rows = list(csv.reader(io.StringIO(text)))
            assert len(rows) > 1 and len({len(row) for row in rows}) == 1, argv
        else:
            assert isinstance(json.loads(text, parse_constant=_reject_constant), dict), argv


def usage_message(out: str) -> str:
    """The message of a USAGE document, asserting that ``out`` is one."""
    error = json.loads(out)["error"]
    assert error["code"] == "USAGE"
    return error["message"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["conquer"]) == 2
        assert "conquer" in usage_message(capsys.readouterr().out)

    def test_missing_strategy_source(self, capsys, reference_model_file):
        assert main(["indicator", str(reference_model_file)]) == 2
        assert "--strategy" in usage_message(capsys.readouterr().out)

    def test_both_strategy_sources(self, capsys, reference_model_file, uniform_strategy_file):
        assert (
            main(
                [
                    "indicator",
                    str(reference_model_file),
                    "--strategy",
                    str(uniform_strategy_file),
                    "--degenerate",
                    "2",
                    "2",
                ]
            )
            == 2
        )
        assert "not allowed" in usage_message(capsys.readouterr().out)

    def test_non_integer_cycles_is_usage_error(self, capsys, reference_model_file):
        status = main(["simulate", str(reference_model_file), "--degenerate", "2", "2", "--cycles", "abc"])
        assert status == 2
        captured = capsys.readouterr()
        assert "--cycles" in usage_message(captured.out)
        assert captured.err.startswith("usage: tuning simulate")

    @pytest.mark.parametrize("option", ["--bogus", "--csv"])
    def test_unknown_option_gets_the_subcommand_usage(self, capsys, reference_model_file, option):
        assert main(["analyze", str(reference_model_file), option]) == 2
        captured = capsys.readouterr()
        assert usage_message(captured.out) == f"unrecognized arguments: {option}"
        assert captured.err.startswith("usage: tuning analyze")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: tuning")

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--refute-samples", "50", "--seed", "-4"), "seed must be >= 0, got -4"),
            (("--refute-samples", "-5"), "samples must be >= 0, got -5"),
        ],
        ids=["negative-seed", "negative-samples"],
    )
    def test_negative_refutation_input_is_usage_error(self, capsys, reference_model_file, options, message):
        assert main(["solve", str(reference_model_file), *options]) == 2
        assert usage_message(capsys.readouterr().out) == message

    def test_zero_cycles_is_usage_error(self, capsys, reference_model_file):
        status, out = run_cli(
            capsys,
            "simulate",
            str(reference_model_file),
            "--degenerate",
            "2",
            "2",
            "--cycles",
            "0",
        )
        assert status == 2
        assert json.loads(out)["error"]["code"] == "USAGE"


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, reference_model_file, tmp_path):
        out_path = tmp_path / "result.json"
        status, out = run_cli(
            capsys, "solve", str(reference_model_file), "-o", str(out_path)
        )
        assert status == 0
        assert out == ""
        assert json.loads(out_path.read_text())["m0_star"] == 3

    @pytest.mark.parametrize(
        "model, command, expected_status",
        [
            (None, ("validate",), 0),
            (None, ("analyze",), 0),
            (None, ("indicator", "--degenerate", "3", "3"), 0),
            (None, ("table", "--which", "a"), 0),
            (None, ("solve", "--refute-samples", "50", "--seed", "2"), 0),
            (None, ("simulate", "--degenerate", "3", "3", "--cycles", "300", "--seed", "5"), 0),
            (None, ("trajectory", "--degenerate", "3", "3", "--max-steps", "20", "--seed", "5"), 0),
            ({"n_internal": 1, "p00": [[0.5]], "p01": [[0.2, 0.2]], "c": [1.0], "d0": [-1.0], "d1": [-1.0]},
             ("validate",), 1),
            ({"n_internal": 1, "p00": [[1.0]], "p01": [[5e-301, 5e-301]], "c": [1.0], "d0": [-1.0], "d1": [-1.0]},
             ("analyze",), 3),
            (None, ("simulate", "--degenerate", "3", "3", "--seed", "-4"), 2),
        ],
        ids=["validate", "analyze", "indicator", "table", "solve", "simulate", "trajectory",
             "invalid-report", "numeric-error", "handler-usage-error"],
    )
    def test_output_file_holds_exactly_what_stdout_would(
        self, capsys, tmp_path, reference_model_file, model, command, expected_status
    ):
        model_file = reference_model_file if model is None else write_json(tmp_path / "model.json", model)
        argv = (command[0], str(model_file), *command[1:])
        status, stdout = run_cli(capsys, *argv)
        out_path = tmp_path / "result"
        status_with_file, out = run_cli(capsys, *argv, "-o", str(out_path))
        assert status == status_with_file == expected_status
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == stdout

    @pytest.mark.parametrize(
        "command", [("validate",), ("simulate", "--degenerate", "3", "3", "--cycles", "300")]
    )
    def test_unwritable_output_is_io_error_on_stdout(self, capsys, tmp_path, reference_model_file, command):
        out_path = tmp_path / "nodir" / "result.json"
        status, out = run_cli(capsys, command[0], str(reference_model_file), *command[1:], "-o", str(out_path))
        assert status == 2
        error = json.loads(out)["error"]
        assert error["code"] == "IO_ERROR"
        assert str(out_path) in error["message"]
        assert not out_path.parent.exists()


class TestOutOfMemory:
    """A failed allocation ends in an OUT_OF_MEMORY document, exit 2. The
    callees are replaced by ones that raise: whether a real oversized
    request fails at once depends on the host's overcommit policy."""

    @staticmethod
    def raiser(exc: MemoryError):
        def fail(*args, **kwargs):
            raise exc
        return fail

    @pytest.mark.parametrize(
        "target, command, exc, message",
        [
            ("refute_with_random_strategies", ("solve", "--refute-samples", "1000000000000"),
             MemoryError("Unable to allocate 14.6 TiB"), "Unable to allocate 14.6 TiB"),
            ("simulate_replicated", ("simulate", "--degenerate", "3", "3"), MemoryError(), "out of memory"),
        ],
        ids=["refute", "simulate"],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
    def test_out_of_memory_document(
        self, capsys, monkeypatch, tmp_path, reference_model_file, target, command, exc, message, to_file
    ):
        monkeypatch.setattr(f"tuning.cli.{target}", self.raiser(exc))
        out_path = tmp_path / "result.json"
        extra = ("-o", str(out_path)) if to_file else ()
        status, out = run_cli(capsys, command[0], str(reference_model_file), *command[1:], *extra)
        assert status == 2
        if to_file:
            assert out == ""
            out = out_path.read_text(encoding="utf-8")
        assert json.loads(out) == {"error": {"code": "OUT_OF_MEMORY", "message": message}}


class TestSubprocessEntryPoint:
    @pytest.mark.parametrize("command, second_env", [
        # (19927, 40073) cycles: both boundaries draw repeated 8192-cycle pools
        (("simulate", "--degenerate", "3", "3", "--cycles", "60000", "--seed", "42"), {}),
        # the refutation's four streams (flat and targeted halves of alpha0 on
        # the calling thread, of alpha1 in a side thread) give the same
        # document in every process; minimizing draws on the negated rewards
        (("solve", "--direction", "max", "--refute-samples", "20000", "--seed", "7"), {}),
        (("solve", "--direction", "min", "--refute-samples", "20000", "--seed", "7"), {}),
        # numpy's float32 log gives the same bits on its AVX2 and AVX-512
        # loops, so capping its dispatch below AVX-512 changes no draw (on a
        # CPU without AVX-512 both children take the AVX2 loop)
        (("solve", "--refute-samples", "20000", "--seed", "7"),
         {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}),
    ], ids=["simulate", "solve-max", "solve-min", "solve-without-avx512"])
    def test_module_invocation_is_bit_identical(self, reference_model_file, command, second_env):
        argv = [sys.executable, "-m", "tuning", command[0], str(reference_model_file), *command[1:]]
        warnings_as_errors = {"PYTHONWARNINGS": "error::RuntimeWarning"}
        first = subprocess.run(argv, capture_output=True, env=child_env(**warnings_as_errors))
        second = subprocess.run(argv, capture_output=True, env=child_env(**warnings_as_errors, **second_env))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_cli_import_leaves_the_thread_pool_unloaded(self):
        # the refutation imports concurrent.futures, and with it logging, when it first runs
        code = "import sys, tuning.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")

    def test_overflow_exits_three_with_warnings_as_errors(self, tmp_path, reference_model_file):
        doc = json.loads(reference_model_file.read_text())
        doc["c"] = [1e308, 1e308]
        path = write_json(tmp_path / "huge.json", doc)
        argv = [sys.executable, "-W", "error", "-m", "tuning", "simulate", str(path), "--degenerate", "3", "3"]
        proc = subprocess.run(argv, capture_output=True, env=child_env())
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"]["code"] == "OVERFLOW"
        assert proc.stderr == b""
