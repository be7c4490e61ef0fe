"""Where the benchmark and the program it measures live in a checkout."""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(HERE, "out")


class BenchError(Exception):
    pass


def load_library() -> None:
    """Put the checkout's ``src`` first on the path and import from it.

    Without the sources the benchmark must fail, never fall back to an
    installed copy of the program.
    """
    if not os.path.isfile(os.path.join(SRC, "fatpoints3", "__init__.py")):
        raise BenchError(f"no fatpoints3 sources under {SRC}")
    sys.path.insert(0, SRC)
    import fatpoints3

    if os.path.dirname(os.path.dirname(os.path.abspath(fatpoints3.__file__))) != SRC:
        raise BenchError(f"fatpoints3 was imported from {fatpoints3.__file__}, not {SRC}")
