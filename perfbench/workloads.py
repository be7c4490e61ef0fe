"""The benchmark's workloads: fixed class lists and the work done per class.

Every per-class function calls the library through module attributes
(``oracle.run_battery``, ``criteria.classify``, ...), so the traced run can
swap those attributes for timing wrappers without touching the program.
Each returns a record of plain JSON values, which the harness compares
with the stored reference.
"""

from __future__ import annotations

import itertools
import math

from fatpoints3 import criteria, oracle
from fatpoints3.criteria import Goal, Verdict
from fatpoints3.divclass import ThreefoldClass, format_class, parse_class

SWEEP_PROBES = 16


def box(dmin: int, dmax: int, rmax: int, mmax: int) -> list[ThreefoldClass]:
    """Classes of a box in the acceptance fixture's enumeration order."""
    return [
        ThreefoldClass(d, tuple(sorted(mults, reverse=True)))
        for d in range(dmin, dmax + 1)
        for r in range(rmax + 1)
        for mults in itertools.combinations_with_replacement(range(1, mmax + 1), r)
    ]


ORACLE_CLASSES = [parse_class(text) for text in (
    # quiet and very ample
    "L3(5; 2^5, 1^7)", "L3(4; 1^8)", "L3(6; 3, 2^6, 1^4)", "L3(9; 4, 3^6, 2^4)",
    # curve degree 2: the conjugate hunt runs
    "L3(3; 1^10)", "L3(8; 3^10)", "L3(7; 2^13)",
    # curve degree 1: the isolated hunt runs; L3(2; 1^7) is the known
    # free-but-base-witness class and stays in, with its reference outcome
    "L3(2; 1^7)", "L3(4; 2, 1^13)", "L3(8; 3^10, 1)", "L3(10; 3^13)",
    # special: a probe fires at once
    "L3(8; 3^12)",
)]


def battery_seeds(seed: int) -> tuple[int, ...]:
    """Geometry seeds of a workload seed: seed .. seed+4."""
    return tuple(range(seed, seed + len(oracle.DEFAULT_SEEDS)))


def _kind(summary) -> str | None:
    return summary.first.witnesses[0].kind if summary.fired else None


def _oracle_record(c, cl, dims, probed) -> dict:
    """Dims and h1 per geometry, probe outcomes and the sweep status.

    The status follows the rules of the ``sweep`` command: each reason is a
    checker verdict that the oracle contradicts.
    """
    reasons = []
    if cl.nonspecial is Verdict.YES and any(t.dim != cl.edim for t in dims.trials):
        reasons.append("nonspecial-but-dimension-deviates")
    base, sep = probed.base.fired, probed.separation.fired
    if cl.bpf and base:
        reasons.append("free-but-base-witness")
    if not cl.bpf and not base:
        reasons.append("unfree-but-no-base-witness")
    if cl.very_ample and sep:
        reasons.append("ample-but-separation-witness")
    if not cl.very_ample and cl.bpf and not sep:
        reasons.append("inseparable-but-no-witness")
    return {
        "class": format_class(c),
        "dims": [[t.dim, t.h1] for t in dims.trials],
        "base_fired": base,
        "base_kind": _kind(probed.base),
        "separation_fired": sep,
        "separation_kind": _kind(probed.separation),
        "status": "DISAGREE" if reasons else "AGREE",
        "reasons": reasons,
    }


def run_sweep_box(c: ThreefoldClass, seed: int) -> dict:
    """The acceptance fixture's work for one class; geometries stay warm."""
    cl = criteria.classify(c)
    dims = oracle.run_battery(c, seeds=battery_seeds(seed), probes=0)
    probed = oracle.run_battery(c, seeds=(seed,), probes=SWEEP_PROBES)
    return _oracle_record(c, cl, dims, probed)


def run_oracle_class(c: ThreefoldClass, seed: int) -> dict:
    """``fatpoints3 oracle`` defaults for one class, from cold caches."""
    oracle.get_geometry.cache_clear()
    cl = criteria.classify(c)
    rep = oracle.run_battery(c, seeds=battery_seeds(seed), probes=oracle.DEFAULT_PROBES)
    return _oracle_record(c, cl, rep, rep)


def run_certify_box(c: ThreefoldClass, seed: int) -> dict:
    """Checker verdicts plus a certificate for every goal; no oracle."""
    cl = criteria.classify(c)
    certs = [criteria.build_certificate(c, goal) for goal in Goal]
    return {
        "class": format_class(c),
        "verdicts": [cl.nonspecial.value, cl.bpf, cl.very_ample],
        "certificates": [[cert.ok, cert.failed_at, len(cert.steps)] for cert in certs],
    }


def _cells(c: ThreefoldClass) -> int:
    rows = sum(math.comb(m + 2, 3) for m in c.mults)
    return rows * math.comb(c.d + 3, 3)


# Condition matrices solved per class: the dimension pass plus the probe
# pass's primes for sweep_box, the one 15-geometry battery for oracle_classes.
_SOLVES = {
    "sweep_box": len(oracle.PRIMES) * (len(oracle.DEFAULT_SEEDS) + 1),
    "oracle_classes": len(oracle.PRIMES) * len(oracle.DEFAULT_SEEDS),
    "certify_box": 0,
}

# Seconds one pass takes on the 2-core host the benchmark was tuned on; a run
# makes as many passes as fit its --seconds at these rates.
NOMINAL_PASS_S = {"sweep_box": 30, "oracle_classes": 18, "certify_box": 12}

WORKLOADS = {
    "sweep_box": (box(6, 6, 10, 3), run_sweep_box),
    "oracle_classes": (ORACLE_CLASSES, run_oracle_class),
    "certify_box": (box(0, 16, 16, 3), run_certify_box),
}


def sizes(name: str) -> dict:
    """Class count and condition-matrix cells of one pass over a workload."""
    classes = WORKLOADS[name][0]
    return {
        "classes": len(classes),
        "matrix_cells": _SOLVES[name] * sum(_cells(c) for c in classes),
    }
