"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces module attributes (``gfp.rref_mod``,
``oracle.conditions_matrix``, ``criteria.cremona_reduce``, ...) with
wrappers that open a span, call the original and close the span; the
``restore`` callable it returns puts the originals back.  Spans live in
flat arrays while the run lasts (name, start, end, parent, class id) and
are written out once it ends.  Nothing runs concurrently, so a span never
waits on another: its time is its self time plus its children's.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

from fatpoints3 import criteria, gfp, oracle

BASE_CATEGORIES = ("on-line", "on-curve", "generic", "isolated-hunt")
SEPARATION_CATEGORIES = (
    "pair-on-line", "pair-on-curve", "pair-generic", "pair-mixed",
    "tangent-generic", "tangent-on-curve", "base-point-hunt", "conjugate-hunt",
)


def _probe_counts(report) -> dict:
    counts = {"fired": int(report.fired)}
    for category, n in report.checked.items():
        counts["checked." + category] = n
    return counts


def _madds(args, result) -> dict:
    a, b = np.shape(args[0]), np.shape(args[1])
    return {"madds": math.prod(a) * (b[-1] if len(b) > 1 else 1)}


# (module, attribute, span name, counters from (args, result), parent filter).
# rref_mod and kernel_from_rref get a span only under solve_system: their
# other callers (kernel_mod, rank_mod) are reported as whole spans.
SPANS = (
    (oracle, "run_battery", "oracle.run_battery", None, None),
    (oracle, "build_geometry", "oracle.build_geometry",
     lambda a, r: {"attempts": r.attempt + 1}, None),
    (oracle, "solve_system", "oracle.solve_system", None, None),
    (oracle, "conditions_matrix", "oracle.conditions_matrix",
     lambda a, r: {"cells": r.size}, None),
    (gfp, "rref_mod", "gfp.rref_mod",
     lambda a, r: {"cells": int(np.size(a[0]))}, "oracle.solve_system"),
    (gfp, "kernel_from_rref", "gfp.kernel_from_rref",
     lambda a, r: {"entries": r.size}, "oracle.solve_system"),
    (oracle, "probe_base_locus", "oracle.probe_base_locus",
     lambda a, r: _probe_counts(r), None),
    (oracle, "probe_separation", "oracle.probe_separation",
     lambda a, r: _probe_counts(r), None),
    (oracle, "hunt_common_zeros", "oracle.hunt_common_zeros",
     lambda a, r: {"found": int(bool(r))}, None),
    (oracle, "monomial_values", "oracle.monomial_values", None, None),
    (oracle, "derivative_values", "oracle.derivative_values", None, None),
    (gfp, "matmul_mod", "gfp.matmul_mod", _madds, None),
    (gfp, "rank_mod", "gfp.rank_mod", None, None),
    (gfp, "kernel_mod", "gfp.kernel_mod", None, None),
    (gfp, "resultant_formal", "gfp.resultant_formal", None, None),
    (gfp, "rational_roots", "gfp.rational_roots", None, None),
    (criteria, "classify", "criteria.classify", None, None),
    (criteria, "build_certificate", "criteria.build_certificate",
     lambda a, r: {"steps": len(r.steps), "ok": int(r.ok)}, None),
    (criteria, "cremona_reduce", "divclass.cremona_reduce",
     lambda a, r: {"moves": len(r.steps)}, None),
)

CLASS = "bench.class"

# Per-layer metrics, in report order: (name, unit, how it is computed).
# "self" is span time minus child spans, "total" is span time, "calls" the
# span count, "sum:<counter>" a counter total, "ratio:<counter>" that total
# over calls.
LAYER_METRICS = [
    ("gfp.rref_mod", ("calls", "self", "sum:cells")),
    ("gfp.kernel_from_rref", ("calls", "self", "sum:entries")),
    ("oracle.solve_system", ("calls", "self")),
    ("oracle.conditions_matrix", ("calls", "self", "sum:cells")),
    ("oracle.build_geometry", ("calls", "self", "sum:attempts")),
    ("oracle.probe_base_locus", ("calls", "self", "ratio:fired")
     + tuple("sum:checked." + k for k in BASE_CATEGORIES)),
    ("oracle.probe_separation", ("calls", "self", "ratio:fired")
     + tuple("sum:checked." + k for k in SEPARATION_CATEGORIES)),
    ("gfp.matmul_mod", ("calls", "self", "sum:madds")),
    ("oracle.monomial_values", ("calls", "self")),
    ("oracle.derivative_values", ("calls", "self")),
    ("gfp.rank_mod", ("calls", "total")),
    ("oracle.hunt_common_zeros", ("calls", "self", "ratio:found")),
    ("gfp.resultant_formal", ("calls", "self")),
    ("gfp.rational_roots", ("calls", "self")),
    ("gfp.kernel_mod", ("calls", "total")),
    ("criteria.classify", ("calls", "self")),
    ("criteria.build_certificate", ("calls", "self", "sum:steps", "ratio:ok")),
    ("divclass.cremona_reduce", ("calls", "self", "sum:moves")),
    ("oracle.run_battery", ("calls", "self")),
    (CLASS, ("calls", "self")),
]


def _metric_name(span: str, how: str) -> tuple[str, str]:
    kind, _, counter = how.partition(":")
    if kind == "calls":
        return f"{span}.calls", "count"
    if kind in ("self", "total"):
        return f"{span}.{kind}_s", "s"
    if kind == "ratio":
        return f"{span}.{counter}_ratio", "ratio"
    return f"{span}.{counter}", "count"


def layer_metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, including the trace totals."""
    units = {}
    for span, hows in LAYER_METRICS:
        for how in hows:
            name, unit = _metric_name(span, how)
            units[name] = unit
    units.update({
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.spans": "count",
        "trace.untraced_classes_per_s": "1/s",
        "trace.traced_classes_per_s": "1/s",
        "trace.overhead": "ratio",
    })
    return units


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.klass = array("i")
        self.stack: list[int] = []
        self.class_id = -1
        self.counters: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open_id(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.klass.append(self.class_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def open(self, name: str) -> int:
        return self._open_id(self._name_id(name))

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn: Callable, name: str, count, only_under) -> Callable:
        nid = self._name_id(name)
        parent_nid = None if only_under is None else self._name_id(only_under)
        prefix = name + "."
        stack, names, counters = self.stack, self.name, self.counters

        def wrapper(*args, **kwargs):
            if parent_nid is not None and (not stack or names[stack[-1]] != parent_nid):
                return fn(*args, **kwargs)
            idx = self._open_id(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                for key, value in count(args, result).items():
                    counters[prefix + key] += value
            return result
        return wrapper

    def install(self) -> Callable[[], None]:
        """Swap every traced attribute for its wrapper; return the undo."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in SPANS]
        for (mod, attr, name, count, only_under), (_, _, fn) in zip(SPANS, saved):
            setattr(mod, attr, self._wrap(fn, name, count, only_under))

        def restore() -> None:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
        return restore

    def times(self) -> tuple[dict, dict, dict]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] += 1
            total[key] += dur[i]
            own[key] += dur[i] - child[i]
        return calls, total, own

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (without the overhead figures)."""
        calls, total, own = self.times()
        out: dict[str, float] = {}
        for span, hows in LAYER_METRICS:
            for how in hows:
                name, _ = _metric_name(span, how)
                kind, _, counter = how.partition(":")
                if kind == "calls":
                    out[name] = calls[span]
                elif kind == "self":
                    out[name] = own[span]
                elif kind == "total":
                    out[name] = total[span]
                elif kind == "ratio":
                    c = calls[span]
                    out[name] = self.counters[f"{span}.{counter}"] / c if c else 0.0
                else:
                    out[name] = self.counters[f"{span}.{counter}"]
        out["trace.wall_s"] = total[CLASS]
        out["trace.self_sum_s"] = sum(own.values())
        out["trace.spans"] = len(self.name)
        return out

    def unlisted_counters(self) -> list[str]:
        """Counter keys that no per-layer metric reports."""
        listed = {
            f"{span}.{how.partition(':')[2]}"
            for span, hows in LAYER_METRICS for how in hows if ":" in how
        }
        return sorted(k for k in self.counters if k not in listed)

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for i in range(len(self.name)):
                fh.write(
                    f'{{"id": {i}, "name": "{self.names[self.name[i]]}", '
                    f'"start": {self.start[i] - t0:.9f}, "end": {self.end[i] - t0:.9f}, '
                    f'"parent": {self.parent[i]}, "class": {self.klass[i]}}}\n'
                )
