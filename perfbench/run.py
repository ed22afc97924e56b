"""Run one benchmark workload, or all of them, and report every metric.

    python3 perfbench/run.py --workload solve-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 5

Run from anywhere; the program measured is ``src/tuning`` of the checkout
this file sits in. Each run prints machine facts, input fingerprints,
every metric with its unit and sample count, and as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The full record, spans included, goes to
``perfbench/out/<workload>-seed<S>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT, MissingProgram, require_program  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked directly."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_ticks() -> list[int]:
    """Machine-wide CPU time counters (user, nice, system, idle, iowait,
    irq, softirq, steal, ...) from /proc/stat; empty where unavailable."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def cpu_noise(before: list[int], after: list[int]) -> dict:
    """Share of all CPUs busy during the run (ours and anyone else's) and
    time stolen by the hypervisor: a busy neighbour shows here."""
    if len(before) < 8 or len(after) < 8:
        return {}
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8]) or 1
    return {
        "busy_share": (total - delta[3] - delta[4]) / total,
        "steal_s": delta[7] / os.sysconf("SC_CLK_TCK"),
    }


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        note = f"  [{m.note}]" if m.note else ""
        print(f"  {name:40s} {m.value:14.6g} {m.unit:9s} n={m.count}{note}")


def run_one(args: argparse.Namespace) -> int:
    try:
        require_program()
        from perfbench import gen, oracle, workloads
    except (MissingProgram, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    facts = machine_facts()
    load_before, ticks_before = os.getloadavg(), _cpu_ticks()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            reference_failures = oracle.check_reference(gen.read_arrays(workloads.REFERENCE_MODEL))
            workload, outcome = workloads.run(args.workload, args.seed, args.seconds, trace, workdir)
        except (MissingProgram, workloads.SetupFailed, OSError) as exc:
            print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after, noise = os.getloadavg(), cpu_noise(ticks_before, _cpu_ticks())
    outcome.failures[:0] = [f"oracle self-check: {f}" for f in reference_failures]
    correct = outcome.correct and not reference_failures

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {int(trace)}")
    print("machine " + json.dumps(facts))
    print(f"loadavg before {load_before}  after {load_after}  cpu during run {json.dumps(noise)}")
    for name, digest in workload.inputs.items():
        print(f"input {name} sha256 {digest}")
    fail_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"fail_frac {fail_frac:.6g} ratio  ({outcome.failed} failed of {outcome.attempted} attempted)")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    if outcome.missing_targets:
        print("not traced (name not found): " + ", ".join(outcome.missing_targets))
    _print_metrics("per-layer metrics (traced run)" if trace else "end-to-end metrics", outcome.metrics)
    if outcome.extra:
        _print_metrics("also reported", outcome.extra)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": int(trace),
        "machine": facts, "loadavg_before": load_before, "loadavg_after": load_after,
        "cpu_during_run": noise,
        "inputs_sha256": workload.inputs, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed, "fail_frac": fail_frac,
        "failures": outcome.failures,
        "metrics": {k: vars(m) for k, m in outcome.metrics.items()},
        "extra": {k: vars(m) for k, m in outcome.extra.items()},
        "samples": outcome.samples, "missing_targets": outcome.missing_targets, "spans": outcome.spans,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record written to {path}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in outcome.metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced then traced, each in its own process."""
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                results[f"{name}/trace{trace}"] = {"correct": False, "exit_code": proc.returncode}
                continue
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("solve-cli", "solve-lib", "simulate-short", "simulate-long"))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
