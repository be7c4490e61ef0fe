"""The benchmark's hooks into the program.

The benchmark's tracer (``perfbench/spans.py``) wraps each function its
``SPANS`` table names by module attribute.  A function deleted or renamed
in the program fails here instead of in a benchmark run.
"""

import importlib.util
import pathlib
import sys

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for module, attribute, name, *_ in spans.SPANS:
        assert callable(getattr(module, attribute, None)), name
