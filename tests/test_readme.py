"""README.md is a runnable walkthrough: every `tuning` command line in its
shell blocks exits 0 and prints a parseable document, and its library
block runs as written."""

from __future__ import annotations

import csv
import io
import json
import re
import shlex
import shutil
from pathlib import Path

from tuning.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
CSV_COMMANDS = ("table", "trajectory")


def fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def readme_commands() -> list[list[str]]:
    lines = [line for block in fenced("sh") for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("tuning ")]


def _in_readme_dir(monkeypatch, tmp_path) -> None:
    (tmp_path / "models").mkdir()
    shutil.copy(ROOT / "models" / "reference.json", tmp_path / "models")
    monkeypatch.chdir(tmp_path)


def test_every_readme_command_runs(capsys, monkeypatch, tmp_path):
    _in_readme_dir(monkeypatch, tmp_path)
    [strategy] = [block for block in fenced("json") if '"alpha0"' in block]
    (tmp_path / "my_strategy.json").write_text(strategy)

    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "validate", "analyze", "indicator", "table", "solve", "simulate", "trajectory",
    }
    for argv in commands:
        status = main(argv)
        out = capsys.readouterr().out
        assert status == 0, argv
        if argv[0] in CSV_COMMANDS:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and len({len(row) for row in rows}) == 1, argv
        else:
            assert isinstance(json.loads(out), dict), argv


def test_library_block_runs_and_factorizes_once(monkeypatch, tmp_path, solves):
    _in_readme_dir(monkeypatch, tmp_path)
    [block] = fenced("python")
    namespace: dict = {}
    exec(block, namespace)
    assert len(solves) == 1
    # every `print(x)  # == y` line of the block holds exactly
    claims = re.findall(r"^print\((.*)\)\s*# == (.*)$", block, flags=re.M)
    assert claims
    for shown, expected in claims:
        assert eval(shown, namespace) == eval(expected, namespace), shown
