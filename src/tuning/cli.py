"""Command line front end.

Each subcommand registers a handler with ``set_defaults``; ``main`` loads and
validates the model once and calls it, and ``_emit`` writes the JSON document
or CSV text the handler returns.

Exit statuses: 0 success, 1 validation errors (a report document is still
emitted), 2 usage errors and failed allocations, 3 numeric failures.
Failure documents carry a machine-readable code. All numbers are
serialized through repr, which keeps 17 significant digits, so documents
round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json

from .absorption import analyze_chain, check_positivity
from .errors import TuningError
from .model import (
    ChainSpec,
    Strategy,
    ValidationReport,
    Violation,
    degenerate_strategy,
    load_chain_spec,
    load_strategy,
    to_doc,
    validate_chain,
    validate_strategy,
)
from .optimizer import refute_with_random_strategies, solve_tuning
from .simulator import DEFAULT_SEGMENT_LIMIT, sample_trajectory
from .simulator import simulate as simulate_replicated  # the name perfbench's traced runs patch
from .stationary import ROUTES, cost_coefficients, indicator

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class _Invalid(Exception):
    """Input document failed validation; ``args[0]`` is the ValidationReport."""


def _error_doc(code: str, message: object) -> dict:
    return {"error": {"code": code, "message": str(message)}}


def _emit(result: dict | str, path: str | None) -> None:
    """Write a JSON document or CSV text to ``path``, or to stdout."""
    text = result if isinstance(result, str) else json.dumps(result, indent=2) + "\n"
    if path is None:
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    """Argument errors also print a USAGE document, as every other failure does."""

    def error(self, message: str):
        _emit(_error_doc("USAGE", message), None)
        super().error(message)


def _read(load, path: str, kind: str):
    """``load(path)``, with a malformed file reported as BAD_FILE."""
    try:
        return load(path)
    except json.JSONDecodeError as exc:
        message = f"{kind} file is not valid JSON: {exc}"
    except ValueError as exc:
        message = str(exc)
    raise _Invalid(ValidationReport((Violation("BAD_FILE", message),), ()))


def _load_model(path: str) -> ChainSpec:
    return _read(load_chain_spec, path, "model")


def _load_strategy(args: argparse.Namespace, spec: ChainSpec) -> Strategy:
    if args.degenerate is not None:
        # out-of-range labels are a usage error, handled by the caller
        return degenerate_strategy(*args.degenerate, spec.n_internal)
    strategy = _read(load_strategy, args.strategy, "strategy")
    report = validate_strategy(strategy, spec.n_internal)
    if not report.ok:
        raise _Invalid(report)
    return strategy


def _csv_text(header: list, rows: list[list]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _validate(args, spec, report) -> dict:
    return report.to_dict()


def _analyze(args, spec, report) -> dict:
    analysis = analyze_chain(spec)
    positivity = check_positivity(analysis)
    doc = {**to_doc(analysis), "positivity_ok": positivity.ok}
    if not positivity.ok:
        doc["positivity"] = [to_doc(v) for v in positivity.errors]
    return doc


def _indicator(args, spec, report) -> dict:
    strategy = _load_strategy(args, spec)
    value = indicator(strategy, spec, analyze_chain(spec), args.route)
    return {"route": args.route, "value": value}


def _table(args, spec, report) -> str:
    coeffs = cost_coefficients(spec, analyze_chain(spec))
    table = getattr(coeffs, f"{args.which}_table")
    labels = list(spec.internal_labels())
    rows = [[m0] + table[i].tolist() for i, m0 in enumerate(labels)]
    return _csv_text(["m0\\m1"] + labels, rows)


def _solve(args, spec, report) -> dict:
    control = solve_tuning(spec, {"max": "maximize", "min": "minimize"}[args.direction])
    doc = to_doc(control)
    if args.refute_samples != 0:  # a negative count is refutation's to reject
        rep = refute_with_random_strategies(spec, control, args.refute_samples, args.seed)
        doc["refutation"] = to_doc(rep)
    return doc


def _simulate(args, spec, report) -> dict:
    strategy = _load_strategy(args, spec)
    stats = simulate_replicated(
        spec, strategy, args.cycles, args.seed, args.replications, segment_limit=args.segment_limit
    )
    return {**to_doc(stats), "seed": args.seed, "replications": args.replications}


def _trajectory(args, spec, report) -> str:
    strategy = _load_strategy(args, spec)
    events = sample_trajectory(spec, strategy, args.max_steps, args.seed)
    rows = [[e.step, e.state, e.event_kind, e.income_delta] for e in events]
    return _csv_text(["step", "state", "event_kind", "income_delta"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tuning",
        description=(
            "Optimal intervention control of an absorbing chain: analytic "
            "policy evaluation, exact solver, and Monte Carlo verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, parser=p)  # main reports leftover arguments through it
        p.add_argument("model", help="path to a model JSON file")
        p.add_argument("-o", "--output", default=None,
                       help="write the result document here instead of stdout")
        p.add_argument("--echo-model", default=None, metavar="PATH",
                       help="also write the normalized model JSON that was used")
        return p

    def strategy_source(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--strategy", default=None, metavar="PATH",
                           help="path to a strategy JSON file")
        group.add_argument("--degenerate", default=None, nargs=2, type=int,
                           metavar=("M0", "M1"),
                           help="deterministic restart labels for boundary 0 and 1")

    def seed_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", default=0, type=int, help="RNG seed (default: 0)")

    command("validate", _validate, "check a model file and report violations")

    command("analyze", _analyze, "absorption probabilities and per-segment income")

    p = command("indicator", _indicator, "long-run average income of one strategy")
    strategy_source(p)
    p.add_argument("--route", default="embedded", choices=ROUTES,
                   help="evaluation route (default: embedded)")

    p = command("table", _table, "deterministic-policy tables as CSV")
    p.add_argument("--which", default="c", choices=("c", "a", "b"),
                   help="which table to emit (default: c, the value table)")

    p = command("solve", _solve, "best deterministic policy")
    p.add_argument("--direction", default="max", choices=("max", "min"))
    p.add_argument("--refute-samples", default=0, type=int, metavar="K",
                   help="also challenge the optimum with K random strategies")
    seed_option(p)

    p = command("simulate", _simulate, "Monte Carlo estimate of the long-run income")
    strategy_source(p)
    p.add_argument("--cycles", default=10_000, type=int)
    p.add_argument("--replications", default=1, type=int)
    p.add_argument("--segment-limit", default=DEFAULT_SEGMENT_LIMIT, type=int,
                   help="abort if one free-evolution segment exceeds this many steps")
    seed_option(p)

    p = command("trajectory", _trajectory, "sample one path and emit it as CSV")
    strategy_source(p)
    p.add_argument("--max-steps", default=200, type=int)
    seed_option(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        spec = _load_model(args.model)
        report = validate_chain(spec)
        if not report.ok:
            raise _Invalid(report)
        if args.echo_model:
            _emit(to_doc(spec), args.echo_model)
        result, status = args.handler(args, spec, report), EXIT_OK
    except _Invalid as exc:
        result, status = exc.args[0].to_dict(), EXIT_INVALID
    except TuningError as exc:
        result, status = _error_doc(exc.code, exc), EXIT_NUMERIC
    except ValueError as exc:
        result, status = _error_doc("USAGE", exc), EXIT_USAGE
    except OSError as exc:
        result, status = _error_doc("IO_ERROR", exc), EXIT_USAGE
    except MemoryError as exc:
        result, status = _error_doc("OUT_OF_MEMORY", str(exc) or "out of memory"), EXIT_USAGE
    try:
        _emit(result, args.output)
    except OSError as exc:
        # -o itself is unwritable, so this document can only go to stdout
        _emit(_error_doc("IO_ERROR", exc), None)
        return EXIT_USAGE
    return status
