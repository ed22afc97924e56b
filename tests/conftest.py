from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

import tuning.absorption
from tuning import ChainSpec, fundamental_solve, to_doc

# two-internal reference instance; every downstream number below is derived
# from it by exact rational arithmetic
REFERENCE = {
    "n_internal": 2,
    "p00": [[0.2, 0.3], [0.4, 0.1]],
    "p01": [[0.3, 0.2], [0.1, 0.4]],
    "c": [1.0, 2.0],
    "d0": [-0.5, -1.0],
    "d1": [-0.7, -0.2],
}

# frozen exact values for the reference instance (hand-checked)
REF_FUNDAMENTAL = [[Fraction(3, 2), Fraction(1, 2)], [Fraction(2, 3), Fraction(4, 3)]]
REF_B = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]]
REF_R = [Fraction(5, 2), Fraction(10, 3)]
REF_C_TABLE = [
    [Fraction(19, 10), Fraction(67, 25)],
    [Fraction(71, 35), Fraction(43, 15)],
]
REF_I_STAR = Fraction(43, 15)  # attained at labels (3, 3)
REF_I_MIN = Fraction(19, 10)  # attained at labels (2, 2)
REF_PI = [Fraction(1, 3), Fraction(2, 3)]  # degenerate (3, 3)
REF_RHO = [Fraction(7, 3), Fraction(47, 15)]  # degenerate (3, 3)

# finite models that validate clean but whose results leave the float range
OVERFLOW_REWARD = {  # d + r overflows
    **REFERENCE, "c": [1e307, 1e307], "d0": [1.7e308, 1.7e308], "d1": [1.7e308, 1.7e308],
}
OVERFLOW_TABLE = {  # every reward is finite, some table entries a are not
    "n_internal": 2,
    "p00": [[0.05, 0.05], [0.05, 0.05]],
    "p01": [[0.05, 0.85], [0.85, 0.05]],
    "c": [0.0, 0.0],
    "d0": [1.5e308, 1.5e308],
    "d1": [1.5e308, 1.5e308],
}
OVERFLOW_GAP = {  # value 1.7e308 and a sampled strategy's near -1.7e308: the refutation's gap overflows
    "n_internal": 2, "p00": [[0.1, 0.1], [0.1, 0.1]], "p01": [[0.4, 0.4], [0.4, 0.4]],
    "c": [0.0, 0.0], "d0": [1.7e308, -1.7e308], "d1": [1.7e308, -1.7e308],
}
# the minimum is finite, but a few sampled strategies' values round past the float limit to +inf
OVERFLOWING_SAMPLES = {
    "n_internal": 2,
    "p00": [[0.11830203405369714, 0.5201531827070315], [0.46149196568153167, 0.19248770852046537]],
    "p01": [[0.22768269277540648, 0.13386209046386485], [0.34375963692109895, 0.002260688876904014]],
    "c": [1e-300, 1e-300],
    "d0": [1.7976931348623155e308, 1.7976931348623157e308],
    "d1": [1.7976931348623157e308, 1.7976931348623151e308],
}
OPPOSITE_COSTS = {  # every table entry is 0.0, the q-value step h = 2e308 / 1 is not finite
    "n_internal": 1, "p00": [[0]], "p01": [[0.5, 0.5]], "c": [0], "d0": [-1e308], "d1": [1e308],
}
# valid, but pair (2, 3)'s boundary chain switches with mass 4e-16 <= DEGENERACY_TOL
ONE_SIDED_EXITS = {
    "n_internal": 2, "p00": [[0.5, 0], [0, 0.5]], "p01": [[0.5, 1e-16], [1e-16, 0.5]],
    "c": [1, 2], "d0": [-1, -1], "d1": [-1, -1],
}
# valid, label 2 keeps the process ~1e13 steps; strategy (3, 3) never enters it,
# and each of its cycles is one step with income d0[1] + c[1] = 1.0
TRAP_AT_LABEL_2 = {
    "n_internal": 2, "p00": [[0.9999999999999, 0.0], [0.0, 0.0]], "p01": [[5e-14, 5e-14], [0.5, 0.5]],
    "c": [1.0, 2.0], "d0": [-1.0, -1.0], "d1": [-1.0, -1.0],
}
OVERFLOW_RESIDUAL = {  # r is finite, its residual (I - P00) r is not
    "n_internal": 3,
    "p00": [[0.25, 0.26, 0.06], [0.23, 0.11, 0.16], [0.09, 0.5, 0.37]],
    "p01": [[0.19, 0.24], [0.27, 0.23], [0.02, 0.02]],
    "c": [1.7e308, -1.7e308, 0.0],
    "d0": [-1.0, -1.0, -1.0],
    "d1": [-1.0, -1.0, -1.0],
}


@pytest.fixture
def reference_spec() -> ChainSpec:
    return ChainSpec(**REFERENCE)


@pytest.fixture
def reference_model_file(tmp_path, reference_spec):
    path = tmp_path / "reference_model.json"
    path.write_text(json.dumps(to_doc(reference_spec), indent=2))
    return path


@pytest.fixture
def solves(monkeypatch) -> list:
    """Records the right-hand-side shape of every factorization that
    analyze_chain runs."""
    calls = []

    def counted(p00, rhs):
        calls.append(rhs.shape)
        return fundamental_solve(p00, rhs)

    monkeypatch.setattr(tuning.absorption, "fundamental_solve", counted)
    return calls


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment plus ``extra``, with the directory that
    holds the imported ``tuning`` package first on PYTHONPATH, so that a
    child ``python`` runs the same code."""
    env = {**os.environ, **extra}
    src = str(Path(tuning.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env
