"""The benchmark's four workloads and how each is measured.

Every workload is a closed loop with one client: the next op starts when
the previous one has ended, for as long as the run lasts. An op is one
CLI invocation (``python -m tuning ...`` in a fresh interpreter) or, on
solve-lib, one group of library calls in a long-lived child process.

Untraced runs give the end-to-end metrics. Traced runs replay the same op
in process, once plain and once with spans around the calls into each
layer (alternating which goes first), and time the subprocess op too, so
that the layer self times, the tracing overhead and the interpreter's
own cost can be told apart.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import signal
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import ROOT, child_env, gen, import_tuning, oracle
from perfbench.spans import Tracer, median_of, per_op

LAYERS = ("model", "absorption", "stationary", "optimizer", "simulator", "cli")
SETUP_REPEATS = 9
ROUTES = ("embedded", "ratio", "fractional")
REFERENCE_MODEL = ROOT / "models" / "reference.json"

# Names the CLI and the optimizer look their callees up by. ``_load_model``
# is the CLI's model reader (JSON parse + ChainSpec); it is counted in the
# model layer, as load_chain_spec would be.
CLI_TARGETS = [
    ("tuning.cli", "_load_model", "model.load"),
    ("tuning.cli", "_load_strategy", "model.load_strategy"),
    ("tuning.cli", "validate_chain", "model.validate_chain"),
    ("tuning.cli", "solve_tuning", "optimizer.solve_tuning"),
    ("tuning.cli", "refute_with_random_strategies", "optimizer.refute"),
    ("tuning.cli", "simulate_replicated", "simulator.simulate"),
]
LIB_TARGETS = [
    ("tuning.optimizer", "analyze_chain", "absorption.analyze_chain"),
    ("tuning.optimizer", "check_positivity", "absorption.check_positivity"),
    ("tuning.optimizer", "cost_coefficients", "stationary.cost_coefficients"),
]

# (metric, unit) in the order BENCHMARK.json lists them
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s_p50", "s"),
    ("wall_s_tail", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
]
PER_LAYER = [
    ("model.load_s", "s"),
    ("model.load_mib_per_s", "MiB/s"),
    ("model.validate_chain_s", "s"),
    ("absorption.analyze_chain_s", "s"),
    ("absorption.analyze_chain_peak_mib", "MiB"),
    ("absorption.check_positivity_s", "s"),
    ("stationary.cost_coefficients_s", "s"),
    ("stationary.cost_coefficients_peak_mib", "MiB"),
    ("stationary.indicator_embedded_s", "s"),
    ("stationary.indicator_ratio_s", "s"),
    ("stationary.indicator_fractional_s", "s"),
    ("optimizer.solve_tuning_s", "s"),
    ("optimizer.solve_tuning_self_s", "s"),
    ("optimizer.solve_tuning_peak_mib", "MiB"),
    ("optimizer.refute_s", "s"),
    ("optimizer.refute_samples_per_s", "samples/s"),
    ("optimizer.refute_peak_mib", "MiB"),
    ("simulator.simulate_s", "s"),
    ("simulator.cycles_per_s", "cycles/s"),
    ("simulator.steps_per_s", "steps/s"),
    ("simulator.trajectory_s", "s"),
    ("simulator.trajectory_steps_per_s", "steps/s"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("cli.process_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Metric:
    value: float
    unit: str
    count: int
    note: str = ""


@dataclass
class Outcome:
    """What one run measured and every check that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    extra: dict[str, Metric] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    missing_targets: list[str] = field(default_factory=list)

    def record(self, failures: list[str], label: str) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            # keep the record small when everything fails the same way
            if len(self.failures) < 20:
                self.failures.extend(f"{label}: {f}" for f in failures)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, and its label.
    Below 11 samples no percentile has 10 beyond it; the maximum is given."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n}"


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mib: float
    exit_code: int


def spawn(args: list[str], stdout: Path, stderr: Path) -> Child:
    """Run ``python args...`` to completion, reaped with wait4 so that CPU
    time and peak RSS are that child's own (RUSAGE_CHILDREN would give the
    maximum over every child so far)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(), file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status))


def _stderr_tail(path: Path) -> str:
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def _read_doc(path: Path) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, [f"unreadable output: {exc}"]
    if not isinstance(doc, dict):
        return None, [f"output is not a JSON object: {doc!r:.80}"]
    return doc, []


class SetupFailed(RuntimeError):
    """The program could not even be set up; no result is printed."""


# ---------------------------------------------------------------------------
# CLI workloads


class Workload:
    """Seeded inputs and op numbering, shared by every workload."""

    name = ""
    # work per op, for the per-layer rates; 0 where the workload does none
    cycles_per_op = 0
    steps_per_cycle = 0.0
    trajectory_steps = 0
    refute_samples = 0
    model_bytes = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self.workdir = workdir
        self.inputs: dict[str, str] = {}  # input name -> sha256

    def op_seed(self, k: int) -> int:
        return gen.op_seed(self.seed, k)


class CliWorkload(Workload):
    """Runs a CLI workload's op, as a child process or in process."""

    def prepare(self) -> None:
        raise NotImplementedError

    def cli_args(self, k: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, doc: dict) -> list[str]:
        raise NotImplementedError

    def probe(self, tuning, tracer: Tracer, outcome: Outcome) -> None:
        """Traced-only calls after the op loop; none by default."""

    def memory_pass(self, tuning) -> dict[str, float]:
        """Peak allocation per span name; only solve exercises numpy-heavy layers."""
        return {}

    def run_op(self, k: int, out: Path) -> tuple[Child, list[str]]:
        out.unlink(missing_ok=True)
        err = self.workdir / "stderr.txt"
        child = spawn(["-m", "tuning", *self.cli_args(k, out)], self.workdir / "stdout.txt", err)
        if child.exit_code != 0:
            return child, [f"exit code {child.exit_code}: {_stderr_tail(err)}"]
        doc, failures = _read_doc(out)
        return child, failures or self.check(doc)

    def run_in_process(self, tuning, k: int, out: Path, tracer: Tracer | None) -> tuple[float, list[str]]:
        out.unlink(missing_ok=True)
        args = self.cli_args(k, out)
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                start = time.perf_counter()
                code = tuning.cli.main(args)
                elapsed = time.perf_counter() - start
            else:
                with tracer.patched(CLI_TARGETS + LIB_TARGETS), tracer.op(f"op{k}", "cli.main") as root:
                    code = tuning.cli.main(args)
                elapsed = root.duration
        if code != 0:
            return elapsed, [f"in-process exit code {code}"]
        doc, failures = _read_doc(out)
        return elapsed, failures or self.check(doc)


def measure_cli_setup() -> list[float]:
    """Wall time of fresh interpreters that import tuning and exit: the
    floor every CLI invocation pays."""
    walls = []
    devnull = Path(os.devnull)
    for _ in range(SETUP_REPEATS):
        child = spawn(["-c", "import tuning"], devnull, devnull)
        if child.exit_code != 0:
            raise SetupFailed(f"'import tuning' exited with {child.exit_code}")
        walls.append(child.wall)
    return walls


def run_cli_untraced(workload: CliWorkload, seconds: float) -> Outcome:
    outcome = Outcome()
    setup = measure_cli_setup()
    walls, cpus, rss, rates = [], [], [], []
    out = workload.workdir / "out.json"
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        child, failures = workload.run_op(k, out)
        outcome.record(failures, f"op {k}")
        walls.append(child.wall)
        cpus.append(child.cpu)
        rss.append(child.rss_mib)
        if workload.cycles_per_op:
            rates.append(workload.cycles_per_op / child.wall)
        k += 1
    tail_value, tail_note = tail(walls)
    outcome.metrics = {
        "setup_s": Metric(statistics.median(setup), "s", len(setup), "median, fresh 'import tuning'"),
        "wall_s_p50": Metric(statistics.median(walls), "s", len(walls)),
        "wall_s_tail": Metric(tail_value, "s", len(walls), tail_note),
        "cpu_s": Metric(statistics.median(cpus), "s", len(cpus), "median user+sys"),
        "peak_rss_mib": Metric(statistics.median(rss), "MiB", len(rss), "median of per-child ru_maxrss"),
    }
    outcome.samples = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus, "rss_mib": rss}
    if rates:
        outcome.extra["cycles_per_s"] = Metric(statistics.median(rates), "cycles/s", len(rates), "median")
    return outcome


def run_cli_traced(workload: CliWorkload, seconds: float) -> Outcome:
    tuning = import_tuning()
    importlib.import_module("tuning.cli")
    outcome = Outcome()
    tracer, probes = Tracer(), Tracer()
    sub_walls, plain = [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        child, failures = workload.run_op(k, workload.workdir / "out.json")
        outcome.record(failures, f"op {k}")
        sub_walls.append(child.wall)
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            out = workload.workdir / f"in-process-{int(traced)}.json"
            elapsed, failures = workload.run_in_process(tuning, k, out, tracer if traced else None)
            outcome.record(failures, f"in-process op {k}{' traced' if traced else ''}")
            if not traced:
                plain.append(elapsed)
        k += 1
    workload.probe(tuning, probes, outcome)
    memory = workload.memory_pass(tuning)
    outcome.metrics = layer_metrics(workload, tracer, probes, plain, sub_walls, memory)
    outcome.spans = tracer.records() + probes.records()
    outcome.missing_targets = sorted(tracer.missing)
    return outcome


def layer_metrics(workload: Workload, tracer: Tracer, probes: Tracer, plain: list[float], sub_walls: list[float],
                  memory: dict[str, float]) -> dict[str, Metric]:
    """Every per-layer metric with its sample count. A span the workload
    never reaches reads 0 with count 0."""
    ops = list(per_op(tracer.spans, LAYERS).values())
    probe_ops = list(per_op(probes.spans, LAYERS).values())

    def span(name: str, self_time: bool = False, among=ops) -> tuple[float, int]:
        values = [(t.self_time if self_time else t.duration)[name] for t in among if name in t.calls]
        return median_of(values), len(values)

    def rate(work: float, timed: tuple[float, int]) -> tuple[float, int]:
        seconds, count = timed
        return (work / seconds, count) if seconds > 0.0 else (0.0, 0)

    def peak(name: str) -> tuple[float, int]:
        return (memory[name], 1) if name in memory else (0.0, 0)

    main = span("cli.main")
    load = span("model.load")
    refute = span("optimizer.refute")
    simulate = span("simulator.simulate")
    trajectory = span("simulator.trajectory", among=probe_ops)
    # each traced op is paired with the plain run of the same op next to it
    # in time, so a slow spell of the machine cancels out of both ratios
    pairs = [(t, p) for t, p in zip(ops, plain) if p > 0.0]
    cycles = workload.cycles_per_op
    values = {
        "model.load_s": load,
        "model.load_mib_per_s": rate(workload.model_bytes / 2**20, load),
        "model.validate_chain_s": span("model.validate_chain"),
        "absorption.analyze_chain_s": span("absorption.analyze_chain"),
        "absorption.analyze_chain_peak_mib": peak("absorption.analyze_chain"),
        "absorption.check_positivity_s": span("absorption.check_positivity"),
        "stationary.cost_coefficients_s": span("stationary.cost_coefficients"),
        "stationary.cost_coefficients_peak_mib": peak("stationary.cost_coefficients"),
        "optimizer.solve_tuning_s": span("optimizer.solve_tuning"),
        "optimizer.solve_tuning_self_s": span("optimizer.solve_tuning", self_time=True),
        "optimizer.solve_tuning_peak_mib": peak("optimizer.solve_tuning"),
        "optimizer.refute_s": refute,
        "optimizer.refute_samples_per_s": rate(workload.refute_samples, refute),
        "optimizer.refute_peak_mib": peak("optimizer.refute"),
        "simulator.simulate_s": simulate,
        "simulator.cycles_per_s": rate(cycles, simulate),
        "simulator.steps_per_s": rate(cycles * workload.steps_per_cycle, simulate),
        "simulator.trajectory_s": trajectory,
        "simulator.trajectory_steps_per_s": rate(workload.trajectory_steps, trajectory),
        "cli.main_s": main,
        "cli.self_s": span("cli.main", self_time=True),
        "cli.process_s": (median_of(sub_walls) - main[0], len(sub_walls)) if sub_walls and main[1] else (0.0, 0),
        "trace.coverage": (median_of([sum(t.layer_self.values()) / p for t, p in pairs]), len(pairs)),
        "trace.overhead_s": (median_of([t.root - p for t, p in pairs]), len(pairs)),
    }
    for route in ROUTES:
        values[f"stationary.indicator_{route}_s"] = span(f"stationary.indicator_{route}", among=probe_ops)
    notes = {
        "simulator.steps_per_s": "computed: cycles x analytic steps/cycle / simulate_s",
        "cli.process_s": "median subprocess wall minus cli.main_s",
        "trace.coverage": "median over ops of (sum of layer self times / untraced in-process op)",
        "trace.overhead_s": "median over ops of (traced minus untraced in-process op)",
    }
    return {name: Metric(float(values[name][0]), unit, values[name][1], notes.get(name, ""))
            for name, unit in PER_LAYER}


def _degenerate(n: int, m0: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
    alpha0, alpha1 = np.zeros(n), np.zeros(n)
    alpha0[m0 - 2] = 1.0
    alpha1[m1 - 2] = 1.0
    return alpha0, alpha1


class SolveCli(CliWorkload):
    name = "solve-cli"

    def __init__(self, seed: int, workdir: Path, n: int = 800, boundary_mass: float = 0.3, refute_samples: int = 5000) -> None:
        super().__init__(seed, workdir)
        self.n, self.boundary_mass, self.refute_samples = n, boundary_mass, refute_samples

    def prepare(self) -> None:
        self.arrays = gen.chain_arrays(gen.rng_for(self.seed, self.name), self.n, self.boundary_mass)
        self.model = self.workdir / "model.json"
        self.inputs["model.json"] = gen.write_json(gen.model_doc(self.arrays), self.model)
        self.model_bytes = self.model.stat().st_size
        self.table = oracle.degenerate_table(self.arrays, oracle.segments(self.arrays))

    def cli_args(self, k: int, out: Path) -> list[str]:
        return ["solve", str(self.model), "--refute-samples", str(self.refute_samples),
                "--seed", str(self.op_seed(k)), "-o", str(out)]

    def check(self, doc: dict) -> list[str]:
        return oracle.check_solve(doc, self.table, self.refute_samples)

    def memory_pass(self, tuning) -> dict[str, float]:
        spec = tuning.ChainSpec(n_internal=self.n, **self.arrays)
        return library_memory_pass(tuning, spec, self.refute_samples, self.op_seed(0))


class SimulateWorkload(CliWorkload):
    """Shared parts of the two simulate workloads."""

    def set_exact(self, arrays: dict[str, np.ndarray], alpha0: np.ndarray, alpha1: np.ndarray) -> None:
        self.arrays, self.alpha0, self.alpha1 = arrays, alpha0, alpha1
        exact = oracle.long_run(arrays, oracle.segments(arrays), alpha0, alpha1)
        self.exact, self.steps_per_cycle = exact.income, exact.steps_per_cycle
        self.model_bytes = self.model.stat().st_size

    def check(self, doc: dict) -> list[str]:
        return oracle.check_simulate(doc, self.exact, self.cycles_per_op)

    def probe(self, tuning, tracer: Tracer, outcome: Outcome) -> None:
        """sample_trajectory over the steps of one replication of the op; its
        per-cycle incomes must reproduce simulate's total for that seed."""
        n = self.arrays["c"].shape[0]
        spec = tuning.ChainSpec(n_internal=n, **self.arrays)
        strategy = tuning.Strategy(alpha0=self.alpha0, alpha1=self.alpha1)
        cycles, seed = self.cycles, self.op_seed(0)
        reference = tuning.simulate(spec, strategy, cycles, seed)
        steps = int(cycles * (self.steps_per_cycle + 1.0) * 1.1) + 1000
        for _ in range(4):
            mark = len(tracer.spans)
            with tracer.op("trajectory", "probe"):
                events = tracer.call("simulator.trajectory", tuning.sample_trajectory, spec, strategy, steps, seed)
            incomes = oracle.cycle_incomes([(e.event_kind, e.income_delta) for e in events])
            del events
            if len(incomes) >= cycles:
                break
            del tracer.spans[mark:]
            steps *= 2
        self.trajectory_steps = steps
        outcome.record(oracle.check_trajectory(incomes, cycles, reference.total_income), "trajectory probe")


class SimulateShort(SimulateWorkload):
    name = "simulate-short"

    def __init__(self, seed: int, workdir: Path, cycles: int = 250_000) -> None:
        super().__init__(seed, workdir)
        self.cycles = self.cycles_per_op = cycles

    def prepare(self) -> None:
        self.model = REFERENCE_MODEL
        self.inputs["models/reference.json"] = gen.file_sha256(self.model)
        arrays = gen.read_arrays(self.model)
        self.set_exact(arrays, *_degenerate(arrays["c"].shape[0], 3, 3))

    def cli_args(self, k: int, out: Path) -> list[str]:
        return ["simulate", str(self.model), "--degenerate", "3", "3", "--cycles", str(self.cycles),
                "--seed", str(self.op_seed(k)), "-o", str(out)]


class SimulateLong(SimulateWorkload):
    name = "simulate-long"

    def __init__(self, seed: int, workdir: Path, n: int = 200, boundary_mass: float = 0.05,
                 cycles: int = 10_000, replications: int = 4) -> None:
        super().__init__(seed, workdir)
        self.n, self.boundary_mass = n, boundary_mass
        self.cycles, self.replications = cycles, replications
        self.cycles_per_op = cycles * replications

    def prepare(self) -> None:
        rng = gen.rng_for(self.seed, self.name)
        arrays = gen.chain_arrays(rng, self.n, self.boundary_mass)
        strategy = gen.dirichlet_strategy(rng, self.n)
        self.model = self.workdir / "model.json"
        self.strategy = self.workdir / "strategy.json"
        self.inputs["model.json"] = gen.write_json(gen.model_doc(arrays), self.model)
        self.inputs["strategy.json"] = gen.write_json(gen.strategy_doc(strategy), self.strategy)
        self.set_exact(arrays, strategy["alpha0"], strategy["alpha1"])

    def cli_args(self, k: int, out: Path) -> list[str]:
        return ["simulate", str(self.model), "--strategy", str(self.strategy), "--cycles", str(self.cycles),
                "--replications", str(self.replications), "--seed", str(self.op_seed(k)), "-o", str(out)]


# ---------------------------------------------------------------------------
# solve-lib: library calls, no parsing


class SolveLib(Workload):
    """solve_tuning then refute_with_random_strategies over in-memory chains,
    in one long-lived child process (lib_worker.py)."""

    name = "solve-lib"

    def __init__(self, seed: int, workdir: Path, n: int = 1500, chains: int = 3,
                 boundary_mass: float = 0.3, refute_samples: int = 2000) -> None:
        super().__init__(seed, workdir)
        self.n, self.chains, self.boundary_mass, self.refute_samples = n, chains, boundary_mass, refute_samples

    def prepare(self) -> None:
        self.arrays = gen.solve_lib_chains(self.seed, self.n, self.chains, self.boundary_mass)
        self.tables = []
        for i, arrays in enumerate(self.arrays):
            self.inputs[f"chain{i}"] = gen.arrays_sha256(arrays)
            self.tables.append(oracle.degenerate_table(arrays, oracle.segments(arrays)))

    def worker_args(self, seconds: float, import_only: bool) -> list[str]:
        args = [str(Path(__file__).resolve().parent / "lib_worker.py"), "--seed", str(self.seed),
                "--seconds", repr(float(seconds)), "--n", str(self.n), "--chains", str(self.chains),
                "--boundary-mass", repr(self.boundary_mass), "--refute-samples", str(self.refute_samples)]
        return args + ["--import-only"] if import_only else args

    def run_worker(self, seconds: float, import_only: bool) -> tuple[Child, dict]:
        out, err = self.workdir / "worker.json", self.workdir / "worker-stderr.txt"
        child = spawn(self.worker_args(seconds, import_only), out, err)
        if child.exit_code != 0:
            raise SetupFailed(f"solve-lib worker exited with {child.exit_code}: {_stderr_tail(err)}")
        doc, failures = _read_doc(out)
        if failures:
            raise SetupFailed(f"solve-lib worker: {failures[0]}")
        return child, doc

    def check(self, result: dict, k: int) -> list[str]:
        return oracle.check_solve(result, self.tables[k % self.chains], self.refute_samples)


def run_lib_untraced(workload: SolveLib, seconds: float) -> Outcome:
    outcome = Outcome()
    imports = [workload.run_worker(0.0, True)[1]["import_s"] for _ in range(SETUP_REPEATS - 1)]
    child, doc = workload.run_worker(seconds, False)
    imports.append(doc["import_s"])
    setup = statistics.median(imports) + statistics.median(doc["build_s"])
    ops = doc["ops"]
    for k, result in enumerate(ops):
        outcome.record(workload.check(result, k), f"op {k}")
    walls = [op["wall"] for op in ops]
    cpus = [op["cpu"] for op in ops]
    outcome.samples = {"import_s": imports, "build_s": doc["build_s"], "wall_s": walls, "cpu_s": cpus}
    tail_value, tail_note = tail(walls)
    outcome.metrics = {
        "setup_s": Metric(setup, "s", len(imports), "median import tuning + median build ChainSpecs"),
        "wall_s_p50": Metric(statistics.median(walls), "s", len(walls)),
        "wall_s_tail": Metric(tail_value, "s", len(walls), tail_note),
        "cpu_s": Metric(statistics.median(cpus), "s", len(cpus), "median user+sys"),
        "peak_rss_mib": Metric(child.rss_mib, "MiB", 1, "the workload's child process"),
    }
    return outcome


def lib_op(tuning, spec, samples: int, seed: int, tracer: Tracer | None = None) -> dict:
    """One solve-lib op; the result in the CLI's document shape."""
    call = tracer.call if tracer else (lambda _name, fn, *a: fn(*a))
    control = call("optimizer.solve_tuning", tuning.solve_tuning, spec)
    report = call("optimizer.refute", tuning.refute_with_random_strategies, spec, control, samples, seed)
    return {
        "direction": control.direction,
        "m0_star": control.m0_star,
        "m1_star": control.m1_star,
        "value": control.value,
        "refutation": {"samples": report.samples, "violations": report.violations},
    }


def library_memory_pass(tuning, spec, samples: int, seed: int) -> dict[str, float]:
    """Peak traced allocation of each span of one op, under tracemalloc."""
    tracer = Tracer(measure_memory=True)
    tracemalloc.start()
    try:
        with tracer.patched(LIB_TARGETS), tracer.op("memory", "op"):
            lib_op(tuning, spec, samples, seed, tracer)
    finally:
        tracemalloc.stop()
    peaks: dict[str, float] = {}
    for s in tracer.spans:
        peaks[s.name] = max(peaks.get(s.name, 0.0), s.peak_mib or 0.0)
    return peaks


def run_lib_traced(workload: SolveLib, seconds: float) -> Outcome:
    tuning = import_tuning()
    outcome = Outcome()
    specs = [tuning.ChainSpec(n_internal=workload.n, **arrays) for arrays in workload.arrays]
    analyses: dict[int, object] = {}
    tracer, probes = Tracer(), Tracer()
    plain = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        spec, seed = specs[k % workload.chains], workload.op_seed(k)
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.patched(LIB_TARGETS), tracer.op(f"op{k}", "op"):
                    result = lib_op(tuning, spec, workload.refute_samples, seed, tracer)
            else:
                t0 = time.perf_counter()
                result = lib_op(tuning, spec, workload.refute_samples, seed)
                plain.append(time.perf_counter() - t0)
            outcome.record(workload.check(result, k), f"op {k}{' traced' if traced else ''}")
        # traced only: the three indicator routes at the optimum
        if k % workload.chains not in analyses:
            analyses[k % workload.chains] = tuning.analyze_chain(spec)
        strategy = tuning.degenerate_strategy(result["m0_star"], result["m1_star"], workload.n)
        table = workload.tables[k % workload.chains]
        expected = float(table[result["m0_star"] - 2, result["m1_star"] - 2])
        with probes.op(f"probe{k}", "probe"):
            for route in ROUTES:
                value = probes.call(f"stationary.indicator_{route}", tuning.indicator, strategy, spec,
                                    analyses[k % workload.chains], route)
                close = abs(value - expected) <= oracle.REL_TOL * max(1.0, abs(expected))
                outcome.record([] if close else [f"{route} gives {value!r}, oracle {expected!r}"],
                               f"indicator probe {k}")
        k += 1
    memory = library_memory_pass(tuning, specs[0], workload.refute_samples, workload.op_seed(0))
    outcome.metrics = layer_metrics(workload, tracer, probes, plain, [], memory)
    outcome.spans = tracer.records() + probes.records()
    outcome.missing_targets = sorted(tracer.missing)
    return outcome


WORKLOADS = {
    "solve-cli": SolveCli,
    "solve-lib": SolveLib,
    "simulate-short": SimulateShort,
    "simulate-long": SimulateLong,
}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, **sizes) -> tuple[object, Outcome]:
    """Prepare the workload's inputs, then measure it for ``seconds``."""
    workload = WORKLOADS[name](seed, workdir, **sizes)
    workload.prepare()
    if isinstance(workload, SolveLib):
        outcome = (run_lib_traced if trace else run_lib_untraced)(workload, seconds)
    else:
        outcome = (run_cli_traced if trace else run_cli_untraced)(workload, seconds)
    return workload, outcome
