"""Seeded input generator, numpy and the standard library only.

It follows the idea of ``tests/strats.py`` without Hypothesis: dense rows
whose entries are all strictly positive, so absorption is certain and
every absorption probability is positive; a fixed boundary mass per row;
incomes in [-10, 10); strictly negative transfer costs; and Dirichlet
strategies. The same seed gives bit-identical arrays and files, and every
input is fingerprinted with sha256 so that runs on two commits can be
shown to have had identical inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

ARRAY_KEYS = ("p00", "p01", "c", "d0", "d1")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, input stream); ``stream`` names the
    workload so that workloads never share draws."""
    return np.random.default_rng([seed, int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")])


def op_seed(seed: int, k: int) -> int:
    """Seed the program gets for op ``k`` of a run with ``seed``."""
    return seed * 100_000 + k


def chain_arrays(rng: np.random.Generator, n: int, boundary_mass: float) -> dict[str, np.ndarray]:
    """One dense chain with ``n`` internal states.

    Every row sends ``boundary_mass`` (up to rounding) to the boundary,
    split between the two sides in [0.2, 0.8], so a segment spends
    1 / boundary_mass internal steps on average from any start.
    """
    if not 0.0 < boundary_mass < 1.0:
        raise ValueError(f"boundary_mass must be in (0, 1), got {boundary_mass}")
    p00 = rng.uniform(0.05, 1.0, size=(n, n))
    p00 *= (1.0 - boundary_mass) / p00.sum(axis=1, keepdims=True)
    split = rng.uniform(0.2, 0.8, size=n)
    p01 = np.column_stack([boundary_mass * split, boundary_mass * (1.0 - split)])
    return {
        "p00": p00,
        "p01": p01,
        "c": rng.uniform(-10.0, 10.0, size=n),
        "d0": -rng.uniform(0.1, 10.0, size=n),
        "d1": -rng.uniform(0.1, 10.0, size=n),
    }


def dirichlet_strategy(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Two flat-Dirichlet restart distributions over ``n`` internal states."""
    alpha = rng.dirichlet(np.ones(n), size=2)
    return {"alpha0": alpha[0], "alpha1": alpha[1]}


def solve_lib_chains(seed: int, n: int, count: int, boundary_mass: float) -> list[dict[str, np.ndarray]]:
    """The in-memory chains of the solve-lib workload for one seed."""
    rng = rng_for(seed, "solve-lib")
    return [chain_arrays(rng, n, boundary_mass) for _ in range(count)]


def model_doc(arrays: dict[str, np.ndarray]) -> dict:
    """Model JSON document in the program's file format."""
    doc = {"n_internal": int(arrays["c"].shape[0])}
    doc.update({key: arrays[key].tolist() for key in ARRAY_KEYS})
    return doc


def strategy_doc(strategy: dict[str, np.ndarray]) -> dict:
    return {key: strategy[key].tolist() for key in ("alpha0", "alpha1")}


def write_json(doc: dict, path: Path) -> str:
    """Write ``doc`` as JSON (floats by repr, so exact) and return the
    sha256 of the bytes written."""
    data = json.dumps(doc).encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def read_arrays(path: Path) -> dict[str, np.ndarray]:
    """Read a model or strategy JSON file into float arrays."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {key: np.asarray(value, dtype=float) for key, value in doc.items() if key != "n_internal"}


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def arrays_sha256(arrays: dict[str, np.ndarray]) -> str:
    """Fingerprint of in-memory inputs: names, shapes and raw float64 bytes."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key], dtype=np.float64)
        digest.update(f"{key}{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()
