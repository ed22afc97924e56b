"""Model types, validation, and file formats.

State labels: the chain lives on {0, 1, ..., N}. States 0 and 1 are the
boundary (absorbing during free evolution), states 2..N are internal.
Arrays are stored 0-based over internal states only, so array index k
corresponds to state label k + 2. All file formats and reports use state
labels; in-memory arrays use 0-based indices.

Boundary rows are never stored: during free evolution the boundary is
absorbing (identity block), and the controlled return into the internal
set is described by a :class:`Strategy`, not by the transition matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-9
STRATEGY_SUM_TOL = 1e-9


def _frozen(values) -> np.ndarray:
    """Copy into a read-only array so instances are freely shareable.

    Integer and float input becomes float. Any other dtype (strings,
    booleans, objects) is kept as given for the validators to reject as
    NOT_NUMERIC; converting with dtype=float would silently parse "0.5".
    """
    arr = np.array(values)
    if arr.dtype.kind in "iuf":
        arr = arr.astype(float, copy=False)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Complete description of one controlled chain.

    Attributes
    ----------
    n_internal : int
        Number of internal states, N - 1 in label terms.
    p00 : ndarray, shape (n, n)
        Free-evolution transitions between internal states. Entry [i, j]
        is the probability of moving from label i+2 to label j+2.
    p01 : ndarray, shape (n, 2)
        Free-evolution transitions from internal states into the boundary;
        column j targets boundary state j.
    c : ndarray, shape (n,)
        Income collected once per step spent in an internal state.
    d0, d1 : ndarray, shape (n,)
        Transfer costs: d0[l] (d1[l]) is charged when an intervention moves
        the process from boundary state 0 (1) to internal label l+2.
        Costs are usually negative by economic content.
    """

    n_internal: int
    p00: np.ndarray
    p01: np.ndarray
    c: np.ndarray
    d0: np.ndarray
    d1: np.ndarray

    def __post_init__(self) -> None:
        # a count of any other type is kept as given for validate_chain to
        # reject; int() would silently turn 2.5, "2" or True into a count
        if isinstance(self.n_internal, np.integer):
            object.__setattr__(self, "n_internal", int(self.n_internal))
        for name in ("p00", "p01", "c", "d0", "d1"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def internal_labels(self) -> range:
        """State labels of the internal states: 2, ..., n_internal + 1."""
        return range(2, self.n_internal + 2)


@dataclass(frozen=True, eq=False)
class Strategy:
    """Intervention distributions: alpha0 from boundary 0, alpha1 from 1.

    alpha0[l] is the probability that an intervention at boundary state 0
    restarts the process at internal label l + 2; likewise alpha1.
    """

    alpha0: np.ndarray
    alpha1: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha0", _frozen(self.alpha0))
        object.__setattr__(self, "alpha1", _frozen(self.alpha1))


@dataclass(frozen=True)
class Violation:
    """One violated rule: machine code, readable message, offending place.

    ``where`` is a state label for state-indexed findings, a field name for
    array-level findings, and None when neither applies.
    """

    code: str
    message: str
    where: int | str | None = None

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "where": self.where}


@dataclass(frozen=True)
class ValidationReport:
    """All violated invariants of one validation pass, never just the first."""

    errors: tuple[Violation, ...]
    warnings: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "valid": self.ok,
            "errors": [v.to_dict() for v in self.errors],
            "warnings": [v.to_dict() for v in self.warnings],
        }


def _reaches_boundary(p00: np.ndarray, p01: np.ndarray) -> np.ndarray:
    """Boolean mask: internal states that reach the boundary with positive
    probability through strictly positive transitions."""
    reach = (p01 > 0.0).any(axis=1)
    positive = p00 > 0.0
    while True:
        grown = reach | positive[:, reach].any(axis=1)
        if (grown == reach).all():
            return reach
        reach = grown


def validate_chain(spec: ChainSpec) -> ValidationReport:
    """Check the structural invariants of a model.

    Errors: BAD_COUNT (n_internal must be an int >= 1; a bool, float or
    str is rejected, not converted), NOT_NUMERIC (an array field holds
    strings, booleans or other non-numbers), BAD_SHAPE, NOT_FINITE,
    PROB_RANGE, ROW_SUM (each row of [p01 | p00] must sum to 1 within
    1e-9; no silent renormalization), NO_ABSORPTION (every internal state
    must reach the boundary through positive-probability transitions).
    Warnings flag suspicious but legal content such as non-negative
    transfer costs.
    """
    errors: list[Violation] = []
    warnings: list[Violation] = []
    n = spec.n_internal

    if isinstance(n, bool) or not isinstance(n, int):
        errors.append(Violation("BAD_COUNT", f"n_internal must be an integer, got {n!r}"))
        return ValidationReport(tuple(errors), tuple(warnings))
    if n < 1:
        errors.append(Violation("BAD_COUNT", f"n_internal must be >= 1, got {n}"))
        return ValidationReport(tuple(errors), tuple(warnings))

    expected = {
        "p00": (n, n),
        "p01": (n, 2),
        "c": (n,),
        "d0": (n,),
        "d1": (n,),
    }
    for name, shape in expected.items():
        arr = getattr(spec, name)
        got = arr.shape
        if arr.dtype.kind not in "iuf":
            errors.append(Violation("NOT_NUMERIC", f"{name} must hold numbers only", name))
        elif got != shape:
            errors.append(
                Violation("BAD_SHAPE", f"{name} must have shape {shape}, got {got}", name)
            )
    if errors:
        # numeric checks assume correct shapes
        return ValidationReport(tuple(errors), tuple(warnings))

    for name in ("p00", "p01", "c", "d0", "d1"):
        if not np.isfinite(getattr(spec, name)).all():
            errors.append(Violation("NOT_FINITE", f"{name} contains NaN or infinity", name))
    if errors:
        return ValidationReport(tuple(errors), tuple(warnings))

    for name in ("p00", "p01"):
        block = getattr(spec, name)
        bad_rows = np.flatnonzero(((block < 0.0) | (block > 1.0)).any(axis=1))
        for i in bad_rows:
            errors.append(
                Violation(
                    "PROB_RANGE",
                    f"{name} row for state {i + 2} has entries outside [0, 1]",
                    int(i + 2),
                )
            )

    row_sums = spec.p00.sum(axis=1) + spec.p01.sum(axis=1)
    for i in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        errors.append(
            Violation(
                "ROW_SUM",
                f"transition row for state {i + 2} sums to {float(row_sums[i])!r}, not 1",
                int(i + 2),
            )
        )

    if not any(v.code == "PROB_RANGE" for v in errors):
        reach = _reaches_boundary(spec.p00, spec.p01)
        for i in np.flatnonzero(~reach):
            errors.append(
                Violation(
                    "NO_ABSORPTION",
                    f"state {i + 2} cannot reach the boundary, absorption is not certain",
                    int(i + 2),
                )
            )

    for name in ("d0", "d1"):
        if (getattr(spec, name) >= 0.0).any():
            warnings.append(
                Violation(
                    "TRANSFER_COST_SIGN",
                    f"{name} has non-negative entries; transfer costs are usually negative",
                    name,
                )
            )

    return ValidationReport(tuple(errors), tuple(warnings))


def validate_strategy(strategy: Strategy, n_internal: int) -> ValidationReport:
    """Check that both intervention vectors are probability distributions.

    Errors: NOT_NUMERIC, BAD_SHAPE, NOT_FINITE, NEGATIVE_MASS,
    NOT_NORMALIZED (sum must be within 1e-9 of 1).
    """
    errors: list[Violation] = []
    for name in ("alpha0", "alpha1"):
        vec = getattr(strategy, name)
        if vec.dtype.kind not in "iuf":
            errors.append(Violation("NOT_NUMERIC", f"{name} must hold numbers only", name))
            continue
        if vec.shape != (n_internal,):
            errors.append(
                Violation(
                    "BAD_SHAPE",
                    f"{name} must have length {n_internal}, got shape {vec.shape}",
                    name,
                )
            )
            continue
        if not np.isfinite(vec).all():
            errors.append(Violation("NOT_FINITE", f"{name} contains NaN or infinity", name))
            continue
        negative = np.flatnonzero(vec < 0.0)
        if negative.size:
            labels = [int(i + 2) for i in negative]
            errors.append(
                Violation(
                    "NEGATIVE_MASS",
                    f"{name} has negative mass at state labels {labels}",
                    name,
                )
            )
        total = float(vec.sum())
        if abs(total - 1.0) > STRATEGY_SUM_TOL:
            errors.append(
                Violation("NOT_NORMALIZED", f"{name} sums to {total!r}, not 1", name)
            )
    return ValidationReport(tuple(errors), ())


def degenerate_strategy(m0: int, m1: int, n_internal: int) -> Strategy:
    """Deterministic strategy: always restart at label m0 from boundary 0
    and at label m1 from boundary 1.

    Raises ValueError if a label is outside {2, ..., n_internal + 1}.
    """
    labels = range(2, n_internal + 2)
    for name, m in (("m0", m0), ("m1", m1)):
        if m not in labels:
            raise ValueError(
                f"{name}={m} is not an internal state label "
                f"(expected {labels.start}..{labels.stop - 1})"
            )
    alpha0 = np.zeros(n_internal)
    alpha1 = np.zeros(n_internal)
    alpha0[m0 - 2] = 1.0
    alpha1[m1 - 2] = 1.0
    return Strategy(alpha0=alpha0, alpha1=alpha1)


# ---------------------------------------------------------------------------
# File formats. Models and strategies are plain JSON documents; all numbers
# round-trip exactly through repr-based serialization.

def chain_spec_to_dict(spec: ChainSpec) -> dict:
    return {
        "n_internal": spec.n_internal,
        "p00": spec.p00.tolist(),
        "p01": spec.p01.tolist(),
        "c": spec.c.tolist(),
        "d0": spec.d0.tolist(),
        "d1": spec.d1.tolist(),
    }


def chain_spec_from_dict(data: dict) -> ChainSpec:
    try:
        return ChainSpec(
            n_internal=data["n_internal"],
            p00=data["p00"],
            p01=data["p01"],
            c=data["c"],
            d0=data["d0"],
            d1=data["d1"],
        )
    except KeyError as exc:
        raise ValueError(f"model document is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model document is malformed: {exc}") from exc


def load_chain_spec(path: str | Path) -> ChainSpec:
    """Read a model from a JSON file; raises ValueError on schema problems."""
    with open(path, encoding="utf-8") as fh:
        return chain_spec_from_dict(json.load(fh))


def dump_chain_spec(spec: ChainSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(chain_spec_to_dict(spec), indent=2) + "\n", encoding="utf-8")


def strategy_to_dict(strategy: Strategy) -> dict:
    return {"alpha0": strategy.alpha0.tolist(), "alpha1": strategy.alpha1.tolist()}


def strategy_from_dict(data: dict) -> Strategy:
    try:
        return Strategy(alpha0=data["alpha0"], alpha1=data["alpha1"])
    except KeyError as exc:
        raise ValueError(f"strategy document is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"strategy document is malformed: {exc}") from exc


def load_strategy(path: str | Path) -> Strategy:
    """Read a strategy from a JSON file; raises ValueError on schema problems."""
    with open(path, encoding="utf-8") as fh:
        return strategy_from_dict(json.load(fh))


def dump_strategy(strategy: Strategy, path: str | Path) -> None:
    Path(path).write_text(json.dumps(strategy_to_dict(strategy), indent=2) + "\n", encoding="utf-8")
