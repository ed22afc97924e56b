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

import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-9


def _frozen(values) -> np.ndarray:
    """Copy into a read-only array so instances are freely shareable.

    A list entry is a number if its type is int, float or a numpy integer or
    floating type, not bool or np.bool_. Numbers become float64, an int beyond
    the float range +-inf; a list holding anything else keeps a non-numeric
    dtype for the validators to reject as NOT_NUMERIC, neither parsed ("0.5")
    nor coerced (True to 1.0). Array input is trusted to its dtype.
    """
    arr = np.array(values)
    if arr.dtype.kind in "iufO" and isinstance(values, (list, tuple)):
        scalars = values  # a regular nested list, arr.ndim deep
        for _ in range(arr.ndim - 1):
            scalars = itertools.chain.from_iterable(scalars)
        number = (int, float, np.integer, np.floating)
        if not all(issubclass(t, number) and t is not bool for t in set(map(type, scalars))):
            arr = np.array(values, dtype=object)
        elif arr.dtype.kind == "O":  # an int past int64/uint64; float(digits) is +-inf past the float range
            arr = np.vectorize(lambda x: float(str(x) if isinstance(x, int) else x), otypes=[float])(arr)
    if arr.dtype.kind in "iuf":
        arr = arr.astype(float, copy=False)
    arr.flags.writeable = False
    return arr


def to_doc(obj) -> dict:
    """A dataclass as a JSON-ready dict: its fields in declaration order,
    numpy arrays as nested lists. Every dataclass the CLI emits goes
    through this function."""
    doc = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}


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
            "errors": [to_doc(v) for v in self.errors],
            "warnings": [to_doc(v) for v in self.warnings],
        }


def _reaches_boundary(p00: np.ndarray, p01: np.ndarray) -> np.ndarray:
    """Boolean mask: internal states that reach the boundary with positive
    probability through strictly positive transitions."""
    reach = new = (p01 > 0.0).any(axis=1)
    positive = p00 > 0.0
    while new.any():  # each state's column is scanned once, in the round after it is reached
        grown = reach | positive[:, new].any(axis=1)
        reach, new = grown, grown & ~reach
    return reach


def _state_findings(code: str, mask: np.ndarray, message) -> list[Violation]:
    """One ``code`` Violation per True entry (i, ...) of ``mask``, in np.nonzero
    order, at state label i + 2, with the text message(label, ...)."""
    return [Violation(code, message(int(i) + 2, *rest), int(i) + 2) for i, *rest in zip(*np.nonzero(mask))]


def _array_error(name: str, arr: np.ndarray, shape: tuple[int, ...]) -> Violation | None:
    """The first of NOT_NUMERIC, BAD_SHAPE and NOT_FINITE that applies to
    the array field ``name``, which must have ``shape``; None if none does."""
    if arr.dtype.kind not in "iuf":
        return Violation("NOT_NUMERIC", f"{name} must hold numbers only", name)
    if arr.shape != shape:
        size = f"length {shape[0]}" if len(shape) == 1 else f"shape {shape}"
        return Violation("BAD_SHAPE", f"{name} must have {size}, got shape {arr.shape}", name)
    if not np.isfinite(arr).all():
        return Violation("NOT_FINITE", f"{name} contains NaN or infinity", name)
    return None


def validate_chain(spec: ChainSpec) -> ValidationReport:
    """Check the structural invariants of a model.

    Errors: BAD_COUNT (n_internal must be an int >= 1; a bool, float or
    str is rejected, not converted) alone; else each array field's first
    NOT_NUMERIC, BAD_SHAPE or NOT_FINITE, as validate_strategy finds them;
    only if none, PROB_RANGE, ROW_SUM (each row of [p01 | p00] must sum to
    1 within 1e-9; no silent renormalization), NO_ABSORPTION (every internal
    state must reach the boundary through positive-probability transitions).
    Warnings flag suspicious but legal content such as non-negative
    transfer costs.
    """
    n = spec.n_internal
    try:
        _check_count("n_internal", n, 1)
    except ValueError as exc:
        return ValidationReport((Violation("BAD_COUNT", str(exc)),), ())

    shapes = {"p00": (n, n), "p01": (n, 2), "c": (n,), "d0": (n,), "d1": (n,)}
    found = (_array_error(name, getattr(spec, name), shape) for name, shape in shapes.items())
    errors = [error for error in found if error]
    if errors:
        # the checks below need numeric, finite arrays of the right shapes
        return ValidationReport(tuple(errors), ())

    for name in ("p00", "p01"):
        block = getattr(spec, name)
        errors += _state_findings("PROB_RANGE", ((block < 0.0) | (block > 1.0)).any(axis=1), lambda label: (
            f"{name} row for state {label} has entries outside [0, 1]"))

    with np.errstate(over="ignore", invalid="ignore"):  # entries far outside [0, 1] are PROB_RANGE
        row_sums = spec.p00.sum(axis=1) + spec.p01.sum(axis=1)
    errors += _state_findings("ROW_SUM", ~(np.abs(row_sums - 1.0) <= ROW_SUM_TOL), lambda label: (
        f"transition row for state {label} sums to {float(row_sums[label - 2])!r}, not 1"))

    if not any(v.code == "PROB_RANGE" for v in errors):
        errors += _state_findings("NO_ABSORPTION", ~_reaches_boundary(spec.p00, spec.p01), lambda label: (
            f"state {label} cannot reach the boundary, absorption is not certain"))

    warnings = []
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
        if error := _array_error(name, vec, (n_internal,)):
            errors.append(error)
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
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN or infinite sum is a miss
            total = float(vec.sum())
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            errors.append(
                Violation("NOT_NORMALIZED", f"{name} sums to {total!r}, not 1", name)
            )
    return ValidationReport(tuple(errors), ())


def _check_strategy(strategy: Strategy, n_internal: int) -> None:
    """ValueError from the first finding of validate_strategy, if any."""
    report = validate_strategy(strategy, n_internal)
    if not report.ok:
        first = report.errors[0]
        raise ValueError(f"strategy {first.message} ({first.code})")


def _check_count(name: str, value, minimum: int) -> None:
    """ValueError unless ``value`` is an int (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_label(name: str, label, n_internal: int) -> None:
    """ValueError unless ``label`` is an int label of an internal state."""
    if not isinstance(label, (int, np.integer)) or not 2 <= label <= n_internal + 1:
        raise ValueError(f"{name}={label!r} is not an internal state label (expected 2..{n_internal + 1})")


def degenerate_strategy(m0: int, m1: int, n_internal: int) -> Strategy:
    """Deterministic strategy: always restart at label m0 from boundary 0
    and at label m1 from boundary 1.

    Raises ValueError unless n_internal is an int >= 1 and each label an int in {2, ..., n_internal + 1}.
    """
    _check_count("n_internal", n_internal, 1)
    _check_label("m0", m0, n_internal)
    _check_label("m1", m1, n_internal)
    alpha0 = np.zeros(n_internal)
    alpha1 = np.zeros(n_internal)
    alpha0[m0 - 2] = 1.0
    alpha1[m1 - 2] = 1.0
    return Strategy(alpha0=alpha0, alpha1=alpha1)


# ---------------------------------------------------------------------------
# File formats. Models and strategies are plain JSON documents, written with
# to_doc; all numbers round-trip exactly through repr-based serialization.

def _from_dict(cls, kind: str, data: dict):
    """Build ``cls`` from the document's keys, taken in field order."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} document must be a JSON object, got {type(data).__name__}")
    try:
        return cls(**{f.name: data[f.name] for f in fields(cls)})
    except KeyError as exc:
        raise ValueError(f"{kind} document is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind} document is malformed: {exc}") from exc


def chain_spec_from_dict(data: dict) -> ChainSpec:
    return _from_dict(ChainSpec, "model", data)


def load_chain_spec(path: str | Path) -> ChainSpec:
    """Read a model from a JSON file; raises ValueError on schema problems."""
    with open(path, encoding="utf-8") as fh:
        return chain_spec_from_dict(json.load(fh))


def strategy_from_dict(data: dict) -> Strategy:
    return _from_dict(Strategy, "strategy", data)


def load_strategy(path: str | Path) -> Strategy:
    """Read a strategy from a JSON file; raises ValueError on schema problems."""
    with open(path, encoding="utf-8") as fh:
        return strategy_from_dict(json.load(fh))
