"""Where the benchmark finds the program it measures.

The benchmark lives in ``perfbench/`` at the root of a checkout and
measures the ``qorder`` sources in ``src/`` of that same checkout, with
the independent oracle in ``tests/oracles.py``.  Nothing is installed:
the paths are put on ``sys.path`` (or ``PYTHONPATH`` for child
interpreters), and an import of ``qorder`` from anywhere else is
refused.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = BENCH / "out"


class MissingSources(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def check_sources() -> None:
    needed = (SRC / "qorder" / "__init__.py", SRC / "qorder" / "cli.py",
              TESTS / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise MissingSources("missing from the checkout: " + ", ".join(missing))


def add_paths() -> None:
    check_sources()
    for path in (str(TESTS), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def check_imported(module) -> None:
    """Refuse a ``qorder`` that was imported from outside this checkout."""
    where = Path(module.__file__).resolve()
    if SRC not in where.parents:
        raise MissingSources(f"qorder was imported from {where}, not {SRC}")


def child_env(environ) -> dict:
    """Environment for a child interpreter that runs this checkout's qorder."""
    env = dict(environ)
    env["PYTHONPATH"] = str(SRC)
    return env
