"""Tests of the benchmark's own code: generator, oracle, span arithmetic,
and a short smoke run of every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from perfbench import ROOT, gen, oracle, workloads
from perfbench.spans import Span, Tracer, per_op, self_times

REFERENCE = gen.read_arrays(ROOT / "models" / "reference.json")

SMOKE_SIZES = {
    "solve-cli": {"n": 30, "refute_samples": 200},
    "solve-lib": {"n": 40, "chains": 2, "refute_samples": 200},
    "simulate-short": {"cycles": 2000},
    "simulate-long": {"n": 20, "cycles": 300, "replications": 2},
}


def test_generator_is_deterministic_per_seed(tmp_path):
    first = gen.chain_arrays(gen.rng_for(7, "solve-cli"), 25, 0.3)
    again = gen.chain_arrays(gen.rng_for(7, "solve-cli"), 25, 0.3)
    other = gen.chain_arrays(gen.rng_for(8, "solve-cli"), 25, 0.3)
    for key in gen.ARRAY_KEYS:
        np.testing.assert_array_equal(first[key], again[key])
    assert gen.arrays_sha256(first) == gen.arrays_sha256(again) != gen.arrays_sha256(other)
    assert gen.write_json(gen.model_doc(first), tmp_path / "a.json") == gen.write_json(
        gen.model_doc(again), tmp_path / "b.json"
    )
    assert gen.file_sha256(tmp_path / "a.json") == gen.write_json(gen.model_doc(first), tmp_path / "c.json")
    assert gen.solve_lib_chains(3, 10, 2, 0.3)[1]["c"].tolist() == gen.solve_lib_chains(3, 10, 2, 0.3)[1]["c"].tolist()


def test_generated_chain_is_valid_and_strictly_positive():
    arrays = gen.chain_arrays(gen.rng_for(1, "x"), 40, 0.05)
    assert (arrays["p00"] > 0).all() and (arrays["p01"] > 0).all()
    np.testing.assert_allclose(arrays["p00"].sum(axis=1) + arrays["p01"].sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(arrays["p01"].sum(axis=1), 0.05, rtol=1e-12)
    assert (arrays["d0"] < 0).all() and (arrays["d1"] < 0).all()
    assert (np.abs(arrays["c"]) <= 10).all()
    strategy = gen.dirichlet_strategy(gen.rng_for(1, "y"), 40)
    for alpha in strategy.values():
        assert (alpha >= 0).all() and abs(alpha.sum() - 1.0) < 1e-12
    # a row-stochastic chain with boundary mass m spends 1/m internal steps per segment
    seg = oracle.segments(arrays)
    np.testing.assert_allclose(seg.t, 20.0, rtol=1e-9)
    np.testing.assert_allclose(seg.b.sum(axis=1), 1.0, atol=1e-12)


def test_oracle_matches_frozen_reference_values():
    assert oracle.check_reference(REFERENCE) == []
    table = oracle.degenerate_table(REFERENCE, oracle.segments(REFERENCE))
    assert oracle.optimum(table, "maximize")[:2] == (3, 3)
    assert oracle.optimum(table, "maximize")[2] == pytest.approx(float(Fraction(43, 15)), rel=1e-14)
    assert oracle.optimum(table, "minimize") == (2, 2, pytest.approx(float(Fraction(19, 10)), rel=1e-14))
    e3 = np.array([0.0, 1.0])
    run = oracle.long_run(REFERENCE, oracle.segments(REFERENCE), e3, e3)
    assert run.income == pytest.approx(float(Fraction(43, 15)), rel=1e-14)
    assert run.steps_per_cycle == pytest.approx(2.0, rel=1e-14)


def test_oracle_reports_wrong_answers():
    table = oracle.degenerate_table(REFERENCE, oracle.segments(REFERENCE))
    good = {"direction": "maximize", "m0_star": 3, "m1_star": 3, "value": 43 / 15,
            "refutation": {"samples": 10, "violations": 0}}
    assert oracle.check_solve(good, table, 10) == []
    assert oracle.check_solve({**good, "m0_star": 2}, table, 10)
    assert oracle.check_solve({**good, "value": 2.8}, table, 10)
    assert oracle.check_solve({**good, "refutation": {"samples": 10, "violations": 1}}, table, 10)
    sim = {"cycles": 100, "i_hat": 2.9, "std_error": 0.01}
    assert oracle.check_simulate(sim, 43 / 15, 100) == []
    assert oracle.check_simulate({**sim, "i_hat": 3.0}, 43 / 15, 100)
    assert oracle.check_simulate({**sim, "cycles": 99}, 43 / 15, 100)
    broken = dict(REFERENCE, c=REFERENCE["c"] + 1.0)
    assert oracle.check_reference(broken)


def test_cycle_incomes_drop_warmup_and_unfinished_cycle():
    events = [("free_move", 1.0), ("absorption", 0.0),
              ("transfer", 0.5), ("free_move", 2.0), ("absorption", 0.0),
              ("transfer", -1.0), ("absorption", 0.0),
              ("transfer", 4.0), ("free_move", 1.0)]
    assert oracle.cycle_incomes(events) == [2.5, -1.0]
    assert oracle.check_trajectory([2.5, -1.0], 2, 1.5) == []
    assert oracle.check_trajectory([2.5, -1.0], 2, 1.25)
    assert oracle.check_trajectory([2.5], 2, 2.5)


def test_self_time_arithmetic():
    spans = [
        Span("cli.main", "op0", None, 0.0, 10.0),
        Span("model.load", "op0", 0, 1.0, 4.0),
        Span("optimizer.solve_tuning", "op0", 0, 5.0, 9.0),
        Span("absorption.analyze_chain", "op0", 2, 6.0, 8.0),
        Span("op", "op1", None, 0.0, 5.0),
        Span("optimizer.refute", "op1", 4, 0.5, 4.5),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.0, 4.0]
    ops = per_op(spans, workloads.LAYERS)
    assert dict(ops["op0"].layer_self) == {"cli": 3.0, "model": 3.0, "optimizer": 2.0, "absorption": 2.0}
    assert sum(ops["op0"].layer_self.values()) == ops["op0"].root == 10.0
    # the harness's own root span belongs to no layer
    assert dict(ops["op1"].layer_self) == {"optimizer": 4.0}
    assert ops["op1"].root == 5.0


def test_tracer_nests_spans_and_restores_patched_names():
    import types

    module = types.ModuleType("perfbench_fake_layer")
    module.work = lambda: time.sleep(0.002)
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        with tracer.patched([(module.__name__, "work", "model.work"), (module.__name__, "gone", "x.y")]):
            with tracer.op("op0", "cli.main"):
                module.work()
                module.work()
        assert module.work.__name__ == "<lambda>"
        assert tracer.missing == {f"{module.__name__}.gone"}
        assert [s.name for s in tracer.spans] == ["cli.main", "model.work", "model.work"]
        assert [s.parent for s in tracer.spans] == [None, 0, 0]
        totals = per_op(tracer.spans, ("cli", "model"))["op0"]
        assert totals.calls["model.work"] == 2
        assert sum(totals.layer_self.values()) == pytest.approx(totals.root, abs=1e-12)
    finally:
        del sys.modules[module.__name__]


def test_memory_peaks_propagate_to_parent_spans():
    tracer = Tracer(measure_memory=True)
    tracemalloc.start()
    try:
        with tracer.op("op0", "op"):
            with tracer.span("absorption.child"):
                block = np.ones(2**20)  # 8 MiB
                del block
            small = np.ones(2**10)
    finally:
        tracemalloc.stop()
    root, child = tracer.spans
    assert child.peak_mib >= 8.0
    assert root.peak_mib >= child.peak_mib
    del small


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]
    assert workloads.tail(values) == (20.0, "p67 of 30")
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_has_no_failures(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    workload, outcome = workloads.run(name, 5, 0.0, trace, tmp_path, **SMOKE_SIZES[name])
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.failures
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert [(k, m.unit) for k, m in outcome.metrics.items()] == expected
    assert all(np.isfinite(m.value) for m in outcome.metrics.values())
    assert workload.inputs
    if trace:
        assert outcome.missing_targets == []
        assert outcome.metrics["trace.coverage"].value > 0.0
    else:
        assert all(m.value > 0.0 for m in outcome.metrics.values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert names == [name for name in workloads.WORKLOADS if name in names]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
