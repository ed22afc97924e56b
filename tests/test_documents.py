"""The document contract: every JSON document lists a dataclass's fields in
declaration order (``to_doc``), and fixed seeds reproduce documents and CSV
text exactly. The pinned values were produced by the release before
``to_doc`` replaced the hand-written builders."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import tuning
from tuning import OptimalControl, RefutationReport, solve_tuning, to_doc
from tuning.cli import main

VIOLATION_KEYS = ["code", "message", "where"]
SIMULATE_KEYS = [
    "cycles", "total_income", "i_hat", "std_error", "boundary_counts", "seed", "replications",
]


def run_doc(capsys, *argv: str) -> tuple[int, dict]:
    status = main(list(argv))
    return status, json.loads(capsys.readouterr().out)


def write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


class TestKeyOrder:
    def test_validate_and_violation(self, capsys, tmp_path, reference_model_file):
        doc = json.loads(reference_model_file.read_text())
        doc["d0"] = [0.5, -1.0]  # legal, but warned about
        status, report = run_doc(capsys, "validate", write_json(tmp_path / "warn.json", doc))
        assert status == 0
        assert list(report) == ["valid", "errors", "warnings"]
        assert [list(v) for v in report["warnings"]] == [VIOLATION_KEYS]

        doc["p01"] = [[0.2, 0.2], [0.1, 0.4]]  # row for state 2 sums to 0.9
        status, report = run_doc(capsys, "validate", write_json(tmp_path / "bad.json", doc))
        assert status == 1
        assert list(report) == ["valid", "errors", "warnings"]
        assert [list(v) for v in report["errors"]] == [VIOLATION_KEYS]

    def test_analyze(self, capsys, tmp_path, reference_model_file):
        status, doc = run_doc(capsys, "analyze", str(reference_model_file))
        assert status == 0
        assert list(doc) == ["b", "r", "positivity_ok"]

        one_sided = {
            "n_internal": 1, "p00": [[0.0]], "p01": [[1.0, 0.0]],
            "c": [1.0], "d0": [-1.0], "d1": [-1.0],
        }
        status, doc = run_doc(capsys, "analyze", write_json(tmp_path / "one_sided.json", one_sided))
        assert status == 0
        assert list(doc) == ["b", "r", "positivity_ok", "positivity"]
        assert doc["positivity_ok"] is False
        assert [list(v) for v in doc["positivity"]] == [VIOLATION_KEYS]

    def test_indicator(self, capsys, reference_model_file):
        status, doc = run_doc(capsys, "indicator", str(reference_model_file), "--degenerate", "2", "3")
        assert status == 0
        assert list(doc) == ["route", "value"]

    def test_solve_with_refutation(self, capsys, reference_model_file):
        status, doc = run_doc(
            capsys, "solve", str(reference_model_file), "--refute-samples", "100", "--seed", "1"
        )
        assert status == 0
        assert list(doc) == ["direction", "m0_star", "m1_star", "value", "refutation"]
        assert doc["refutation"] == {
            "samples": 100,
            "seed": 1,
            "tolerance": 1e-09,
            "best_observed": 2.8038279732869436,
            "gap": 0.0628386933797227,
            "violations": 0,
        }
        assert list(doc["refutation"]) == [
            "samples", "seed", "tolerance", "best_observed", "gap", "violations",
        ]

    def test_simulate(self, capsys, reference_model_file):
        status, doc = run_doc(
            capsys, "simulate", str(reference_model_file), "--degenerate", "3", "3",
            "--cycles", "100", "--seed", "1",
        )
        assert status == 0
        assert list(doc) == SIMULATE_KEYS

    def test_error_document(self, capsys, reference_model_file):
        status, doc = run_doc(capsys, "solve", str(reference_model_file), "--refute-samples", "-1")
        assert status == 2
        assert list(doc) == ["error"]
        assert list(doc["error"]) == ["code", "message"]

    def test_echo_model_file(self, capsys, tmp_path, reference_model_file):
        echo = tmp_path / "echo.json"
        status, _ = run_doc(capsys, "validate", str(reference_model_file), "--echo-model", str(echo))
        assert status == 0
        text = echo.read_text(encoding="utf-8")
        assert list(json.loads(text)) == ["n_internal", "p00", "p01", "c", "d0", "d1"]
        assert text == json.dumps(json.loads(reference_model_file.read_text()), indent=2) + "\n"


class TestToDoc:
    def test_library_export(self):
        assert "to_doc" in tuning.__all__
        for gone in ("chain_spec_to_dict", "strategy_to_dict", "dump_chain_spec"):
            assert gone not in tuning.__all__ and not hasattr(tuning, gone)

    def test_fields_in_order_with_arrays_as_lists(self, reference_spec):
        doc = to_doc(reference_spec)
        assert list(doc) == ["n_internal", "p00", "p01", "c", "d0", "d1"]
        assert doc["p00"] == [[0.2, 0.3], [0.4, 0.1]] and type(doc["p00"]) is list

    def test_optimal_control_is_the_solve_document(self, capsys, reference_spec, reference_model_file):
        assert [f.name for f in dataclasses.fields(OptimalControl)] == [
            "direction", "m0_star", "m1_star", "value",
        ]
        assert solve_tuning(reference_spec) == solve_tuning(reference_spec)
        assert to_doc(solve_tuning(reference_spec)) == {
            "direction": "maximize", "m0_star": 3, "m1_star": 3, "value": 2.8666666666666663,
        }
        for direction, flag in (("maximize", "max"), ("minimize", "min")):
            status, doc = run_doc(
                capsys, "solve", str(reference_model_file), "--direction", flag,
                "--refute-samples", "100",
            )
            assert status == 0
            del doc["refutation"]
            assert doc == to_doc(solve_tuning(reference_spec, direction))

    def test_plain_values_pass_through(self):
        report = RefutationReport(samples=0, seed=3, tolerance=1e-9, best_observed=None, gap=None, violations=0)
        assert to_doc(report) == {
            "samples": 0, "seed": 3, "tolerance": 1e-9,
            "best_observed": None, "gap": None, "violations": 0,
        }


class TestPinnedOutputs:
    def test_simulate_degenerate(self, capsys, reference_model_file):
        status, doc = run_doc(
            capsys, "simulate", str(reference_model_file), "--degenerate", "3", "3",
            "--cycles", "5000", "--seed", "1",
        )
        assert status == 0
        # std_error comes from a pairwise sum whose order numpy does not fix
        assert doc.pop("std_error") == pytest.approx(0.028376544407917377, rel=1e-12, abs=0)
        assert doc == {
            "cycles": 5000,
            "total_income": 14189.199999999255,
            "i_hat": 2.837839999999851,
            "boundary_counts": [1696, 3304],
            "seed": 1,
            "replications": 1,
        }

    def test_simulate_into_the_second_4096_pool(self, capsys, reference_model_file):
        # 5315 boundary-1 cycles: past 1 + 16 + 256 + 4096, within 8465
        status, doc = run_doc(
            capsys, "simulate", str(reference_model_file), "--degenerate", "3", "3",
            "--cycles", "8000", "--seed", "3",
        )
        assert status == 0
        assert doc.pop("std_error") == pytest.approx(0.023096193366407856, rel=1e-12, abs=0)
        assert doc == {
            "cycles": 8000,
            "total_income": 22883.999999997777,
            "i_hat": 2.860499999999722,
            "boundary_counts": [2685, 5315],
            "seed": 3,
            "replications": 1,
        }

    def test_simulate_strategy_replicated(self, capsys, tmp_path, reference_model_file):
        strategy = write_json(tmp_path / "uniform.json", {"alpha0": [0.5, 0.5], "alpha1": [0.5, 0.5]})
        status, doc = run_doc(
            capsys, "simulate", str(reference_model_file), "--strategy", strategy,
            "--replications", "3", "--seed", "2",
        )
        assert status == 0
        assert doc.pop("std_error") == pytest.approx(0.012039034719028471, rel=1e-12, abs=0)
        assert doc == {
            "cycles": 30000,
            "total_income": 69576.20000002286,
            "i_hat": 2.3192066666674287,
            "boundary_counts": [12526, 17474],
            "seed": 2,
            "replications": 3,
        }

    def test_trajectory_csv_head(self, capsys, reference_model_file):
        status = main(["trajectory", str(reference_model_file), "--degenerate", "2", "3", "--seed", "4"])
        assert status == 0
        assert capsys.readouterr().out.splitlines()[:20] == [
            "step,state,event_kind,income_delta",
            "0,2,transfer,0.5",
            "1,0,absorption,0.0",
            "2,2,transfer,0.5",
            "3,1,absorption,0.0",
            "4,3,transfer,1.8",
            "5,2,free_move,1.0",
            "6,1,absorption,0.0",
            "7,3,transfer,1.8",
            "8,1,absorption,0.0",
            "9,3,transfer,1.8",
            "10,2,free_move,1.0",
            "11,1,absorption,0.0",
            "12,3,transfer,1.8",
            "13,2,free_move,1.0",
            "14,0,absorption,0.0",
            "15,2,transfer,0.5",
            "16,2,free_move,1.0",
            "17,1,absorption,0.0",
            "18,3,transfer,1.8",
        ]
