"""Census of the function-body statements of ``src/fatpoints3/`` that a test
run never executes.

Runs pytest in-process under a stdlib ``sys.settrace`` tracer confined to
frames whose code lives in ``src/fatpoints3/``, then prints every
function-body statement that never ran as ``module:line: source``, followed by
the count per module and the total outside ``cli.py``.  A statement counts as
run when any line of it ran; for a compound statement (``if``, ``for``,
``try``, ...) only its header lines count, and its body's statements are
counted on their own.  Docstrings and ``global``/``nonlocal`` declarations,
which compile to nothing, are left out, and so are module and class bodies,
which run at import.

The CLI tests that run ``fatpoints3`` in a subprocess are not traced, so the
census overcounts ``cli.py``.

Run from the repository root::

    python tests/line_census.py              # every suite but test_acceptance.py
    python tests/line_census.py tests/test_gfp.py -k resultant

Extra arguments replace the default suites and go to ``pytest.main`` as
given.  The file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import collections
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fatpoints3"

# every suite but acceptance, whose fixture runs the oracle on its whole 4095-class box
DEFAULT_SUITES = sorted(str(path) for path in (ROOT / "tests").glob("test_*.py")
                        if path.name != "test_acceptance.py")

_BLOCKS = ("body", "orelse", "finalbody", "handlers")


def _statements(body: list, out: list, docstring: bool = False) -> None:
    """The statements of a block, nested blocks included, as (first, last)
    line: a compound statement's header, a simple statement whole.  A nested
    function's ``def`` belongs to the enclosing body, its own body to the
    function itself."""
    for i, stmt in enumerate(body):
        if docstring and i == 0 and isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str):
            continue
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        blocks = [getattr(stmt, field) for field in _BLOCKS if getattr(stmt, field, None)]
        last = min(block[0].lineno for block in blocks) - 1 if blocks else stmt.end_lineno
        out.append((stmt.lineno, max(stmt.lineno, last)))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in blocks:
            _statements(block, out)


def function_statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of every function-body statement of a module."""
    out: list[tuple[int, int]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _statements(node.body, out, docstring=True)
    return sorted(set(out))


def trace(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on args with the tracer on: its exit code and the lines
    run in each file of the package."""
    seen: dict[str, set[int]] = collections.defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = seen[filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    status, seen = trace(argv or DEFAULT_SUITES)
    elapsed = time.perf_counter() - start
    counts: dict[str, int] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = seen.get(str(path), set())
        missed = [(a, b) for a, b in function_statements(source)
                  if ran.isdisjoint(range(a, b + 1))]
        counts[path.name] = len(missed)
        for a, _ in missed:
            print(f"{path.name}:{a}: {lines[a - 1].strip()}")
    print()
    for name, n in counts.items():
        print(f"{name}: {n} never run")
    outside = sum(n for name, n in counts.items() if name != "cli.py")
    print(f"outside cli.py: {outside} never run (pytest exit {status}, {elapsed:.0f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
