from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tuning import simulate_replicated, solve_tuning
from tuning.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    status = main(list(argv))
    return status, capsys.readouterr().out


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture
def uniform_strategy_file(tmp_path):
    return write_json(tmp_path / "uniform.json", {"alpha0": [0.5, 0.5], "alpha1": [0.5, 0.5]})


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

    def test_unparseable_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        status, out = run_cli(capsys, "validate", str(path))
        assert status == 1
        assert json.loads(out)["errors"][0]["code"] == "BAD_FILE"

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

    def test_csv_side_channel(self, capsys, reference_model_file, tmp_path):
        csv_path = tmp_path / "per_state.csv"
        status, _ = run_cli(
            capsys, "analyze", str(reference_model_file), "--csv", str(csv_path)
        )
        assert status == 0
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        assert rows[0] == ["state", "b0", "b1", "r"]
        assert [row[0] for row in rows[1:]] == ["2", "3"]
        assert abs(float(rows[1][3]) - 2.5) <= 1e-12

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
    def test_degenerate_value(self, capsys, reference_model_file):
        status, out = run_cli(
            capsys, "indicator", str(reference_model_file), "--degenerate", "3", "3"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["route"] == "embedded"
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
        stats = simulate_replicated(
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

    @pytest.mark.parametrize("command", [("validate",), ("simulate", "--degenerate", "3", "3")])
    def test_string_model_entry_exits_one(self, capsys, tmp_path, reference_model_file, command):
        doc = json.loads(reference_model_file.read_text())
        doc["c"] = ["1.0", 2.0]
        path = write_json(tmp_path / "strings.json", doc)
        status, out = run_cli(capsys, command[0], str(path), *command[1:])
        assert status == 1
        assert [e["code"] for e in json.loads(out)["errors"]] == ["NOT_NUMERIC"]

    def test_string_strategy_entry_exits_one(self, capsys, tmp_path, reference_model_file):
        strategy = write_json(tmp_path / "strings.json", {"alpha0": ["0", "1"], "alpha1": [0.5, 0.5]})
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
        first = lines[1].split(",")
        assert first[:3] == ["0", "2", "free_move"]


class TestSeedResolution:
    def test_env_var_supplies_default(self, capsys, reference_model_file, monkeypatch):
        monkeypatch.setenv("TUNING_SEED", "42")
        argv = ("simulate", str(reference_model_file), "--degenerate", "3", "3", "--cycles", "500")
        status, from_env = run_cli(capsys, *argv)
        assert status == 0
        monkeypatch.delenv("TUNING_SEED")
        status, explicit = run_cli(capsys, *argv, "--seed", "42")
        assert from_env == explicit

    def test_explicit_seed_wins_over_env(self, capsys, reference_model_file, monkeypatch):
        monkeypatch.setenv("TUNING_SEED", "1")
        argv = ("simulate", str(reference_model_file), "--degenerate", "3", "3", "--cycles", "500")
        status, with_env_override = run_cli(capsys, *argv, "--seed", "42")
        monkeypatch.delenv("TUNING_SEED")
        status, explicit = run_cli(capsys, *argv, "--seed", "42")
        assert with_env_override == explicit

    def test_bad_env_seed_is_usage_error(self, capsys, reference_model_file, monkeypatch):
        monkeypatch.setenv("TUNING_SEED", "not-a-number")
        status, out = run_cli(
            capsys, "simulate", str(reference_model_file), "--degenerate", "3", "3"
        )
        assert status == 2
        assert json.loads(out)["error"]["code"] == "USAGE"


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


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["conquer"]) == 2

    def test_missing_strategy_source(self, capsys, reference_model_file):
        assert main(["indicator", str(reference_model_file)]) == 2

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


class TestSubprocessEntryPoint:
    def test_module_invocation_is_bit_identical(self, reference_model_file):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = [
            sys.executable,
            "-m",
            "tuning",
            "simulate",
            str(reference_model_file),
            "--degenerate",
            "3",
            "3",
            "--cycles",
            "20000",
            "--seed",
            "42",
        ]
        first = subprocess.run(argv, capture_output=True, env=env)
        second = subprocess.run(argv, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_overflow_exits_three_with_warnings_as_errors(self, tmp_path, reference_model_file):
        doc = json.loads(reference_model_file.read_text())
        doc["c"] = [1e308, 1e308]
        path = write_json(tmp_path / "huge.json", doc)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-W", "error", "-m", "tuning", "simulate", str(path), "--degenerate", "3", "3"]
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"]["code"] == "OVERFLOW"
        assert proc.stderr == b""
