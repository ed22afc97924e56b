"""Seeded, offline benchmark of the ``tuning`` CLI and library.

The benchmark measures the program in the checkout it sits in: ``src/``
next to this directory. See README.md here for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no ``tuning`` sources to measure."""


def require_program() -> None:
    """Fail unless ``src/tuning`` exists in this checkout."""
    if not (SRC / "tuning" / "__init__.py").is_file():
        raise MissingProgram(f"no tuning sources under {SRC}")


def import_tuning():
    """Import ``tuning`` from this checkout's ``src/``, never from elsewhere."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tuning

    if Path(tuning.__file__).resolve().parent != SRC / "tuning":
        raise MissingProgram(f"imported tuning from {tuning.__file__}, not from {SRC}")
    return tuning


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src/`` and root
    first on the import path, everything else inherited."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env
