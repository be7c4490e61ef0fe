"""Cross-validation gate: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE n (<name>): PASS|FAIL`` line and, on
failure, pins the offending classes.  The shared fixture sweeps every
normalized class with d <= 8, r <= 12, multiplicities <= 3 (4095 classes):
exact dimensions over the full battery of 3 primes x 5 seeds, probe passes
over a reduced battery of 3 primes x 1 seed with 16 probe points per
category (probes re-derive their own geometry, so one seed per prime keeps
the sweep inside a few minutes without weakening the dimension check).

Expected state of the suite: criterion 3's quiet direction is genuinely red.
L3(2; 1^7) satisfies the printed freeness rule (the point-count threshold is
waived below eight points), yet seven simple points on the quadric
intersection curve force the classical eighth associated point: every
quadric through the seven passes through an eighth unassigned point, and the
exact hunt pins it in every geometry.  The test states the rule faithfully
and fails on that one class rather than special-casing it.
"""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import numpy as np

from fatpoints3 import gfp, oracle
from fatpoints3.criteria import Goal, Verdict, build_certificate, classify
from fatpoints3.divclass import (
    ThreefoldClass,
    format_class,
    k_int,
    residual,
    restricted_plane_class,
    self_int,
    vdim2,
    vdim3,
)

SWEEP_DMAX = 8
SWEEP_RMAX = 12
SWEEP_MMAX = 3
PROBE_SEEDS = (0,)
PROBE_COUNT = 16


def box_classes(dmin=0, dmax=SWEEP_DMAX, rmax=SWEEP_RMAX, mmax=SWEEP_MMAX,
                rmin=0):
    out = []
    for d in range(dmin, dmax + 1):
        for r in range(rmin, rmax + 1):
            for mults in itertools.combinations_with_replacement(
                    range(1, mmax + 1), r):
                out.append(ThreefoldClass(d, tuple(sorted(mults, reverse=True))))
    return out


@pytest.fixture(scope="session")
def sweep():
    records = []
    for c in box_classes():
        cl = classify(c)
        dims = oracle.run_battery(c, probes=0)
        probed = oracle.run_battery(c, seeds=PROBE_SEEDS, probes=PROBE_COUNT)
        records.append((c, cl, dims, probed))
    return records


def report(n, name, failures, notes=()):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {n} ({name}): {status}"
    print(line)
    for note in notes:
        print(f"  note: {note}")
    if failures:
        shown = failures[:40]
        if len(failures) > len(shown):
            shown.append(f"... and {len(failures) - len(shown)} more")
        pytest.fail(line + "\n" + "\n".join(f"  - {f}" for f in shown),
                    pytrace=False)


def test_acceptance_01_nonspecial_crosscheck(sweep):
    # every class the nonspeciality rule accepts must land on its expected
    # dimension, with no higher cohomology, in all fifteen geometries
    failures = []
    checked = 0
    for c, cl, dims, _ in sweep:
        if cl.nonspecial is not Verdict.YES:
            continue
        checked += 1
        for t in dims.trials:
            if t.dim != cl.edim or t.h1 != 0:
                failures.append(
                    f"{format_class(c)}: prime {t.prime} seed {t.seed} "
                    f"gives dim {t.dim}, h1 {t.h1}, expected dim {cl.edim}, h1 0"
                )
    assert checked > 0
    report(1, "nonspecial classes hit expected dimension",
           failures, [f"{checked} accepted classes x 15 geometries"])


def test_acceptance_02_known_special_pencil():
    # nine simple points on the quadric intersection leave the pencil of
    # quadrics through the curve: measured dim 1 against expected dim 0
    c = ThreefoldClass(2, (1,) * 9)
    cl = classify(c)
    rep = oracle.run_battery(c, probes=0)
    failures = []
    if rep.vdim != 0:
        failures.append(f"vdim {rep.vdim} != 0")
    for t in rep.trials:
        if t.dim != 1 or t.h1 != 1:
            failures.append(
                f"prime {t.prime} seed {t.seed}: dim {t.dim}, h1 {t.h1}, "
                "expected dim 1, h1 1"
            )
    if cl.nonspecial is not Verdict.UNKNOWN:
        failures.append(f"checker verdict {cl.nonspecial.value} != unknown")
    report(2, "known special pencil L3(2; 1^9)", failures)


def test_acceptance_03_bpf_iff_probes(sweep):
    failures = []
    fired_when_free = 0
    for c, cl, _, probed in sweep:
        if not cl.bpf:
            if not probed.base.fired:
                failures.append(
                    f"{format_class(c)}: freeness rule rejects it but no "
                    "base-locus probe fired"
                )
        elif probed.base.fired:
            fired_when_free += 1
            kind = probed.base.first.witnesses[0].kind
            failures.append(
                f"{format_class(c)}: freeness rule accepts it but the "
                f"{kind} probe pinned a base point"
            )
    # the curve probe specifically must catch eight simple points, where the
    # whole intersection curve sits in the base locus
    c8 = ThreefoldClass(2, (1,) * 8)
    rep8 = next(p for cc, _, _, p in sweep if cc == c8)
    if not rep8.base.fired or rep8.base.first.witnesses[0].kind != "on-curve":
        failures.append("L3(2; 1^8) did not fire the on-curve probe")
    report(3, "freeness rule vs base-locus probes", failures,
           [f"{fired_when_free} accepted class(es) with a pinned base point"])


def test_acceptance_04_va_iff_separation(sweep):
    failures = []
    for c, cl, _, probed in sweep:
        if cl.very_ample:
            if probed.separation.fired:
                kind = probed.separation.first.witnesses[0].kind
                failures.append(
                    f"{format_class(c)}: very-ampleness rule accepts it but "
                    f"the {kind} probe found an unseparated pair"
                )
        elif cl.bpf and not probed.separation.fired:
            failures.append(
                f"{format_class(c)}: free but not very ample by the rule, "
                "yet every separation probe reported full rank"
            )
    report(4, "very-ampleness rule vs separation probes", failures)


def test_acceptance_05_certificate_soundness(sweep):
    failures = []
    built = 0
    moves = 0
    for c, cl, _, _ in sweep:
        goals = (
            (Goal.NONSPECIAL, cl.nonspecial is Verdict.YES),
            (Goal.BPF, cl.bpf),
            (Goal.VERY_AMPLE, cl.very_ample),
        )
        for goal, accepted in goals:
            if not accepted:
                continue
            cert = build_certificate(c, goal)
            built += 1
            if not cert.ok:
                failures.append(
                    f"{format_class(c)} [{goal.value}]: certificate failed "
                    f"at step {cert.failed_at}, terminal rule {cert.terminal.rule!r}"
                )
            for step in cert.steps:
                for move in step.surface.reduction.steps:
                    moves += 1
                    if (self_int(move.before) != self_int(move.after)
                            or k_int(move.before) != k_int(move.after)):
                        failures.append(
                            f"{format_class(c)} [{goal.value}] step {step.index}: "
                            f"quadratic move {format_class(move.before)} -> "
                            f"{format_class(move.after)} broke an intersection invariant"
                        )
    assert built > 0
    report(5, "certificates for accepted classes", failures,
           [f"{built} certificates, {moves} quadratic moves checked"])


def test_acceptance_06_chi_additivity():
    # expected-dimension bookkeeping must split exactly into the residual
    # class plus the plane model of the quadric trace
    failures = []
    for c in box_classes():
        lhs = vdim3(c) + 1
        rhs = (vdim3(residual(c)) + 1) + (vdim2(restricted_plane_class(c)) + 1)
        if lhs != rhs:
            failures.append(f"{format_class(c)}: {lhs} != {rhs}")
    report(6, "expected-dimension additivity", failures)


def test_acceptance_07_cli_determinism(tmp_path):
    argv = [
        sys.executable, "-m", "fatpoints3.cli", "sweep",
        "--dmax", "2", "--rmax", "4", "--mmax", "2",
        "--trials", "2", "--probes", "8", "--format", "json",
    ]
    # the child imports the fatpoints3 this suite imports, installed or not
    path = [str(pathlib.Path(oracle.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs = [subprocess.run(argv, capture_output=True, env=env) for _ in range(2)]
    failures = []
    for i, r in enumerate(runs):
        if r.returncode != 0:
            failures.append(f"run {i} exited {r.returncode}: {r.stderr.decode()!r}")
    if not failures and runs[0].stdout != runs[1].stdout:
        failures.append("two identical sweeps produced different bytes")
    if not failures:
        obj = json.loads(runs[0].stdout)
        if obj["summary"]["disagree"] != 0:
            failures.append(f"unexpected disagreements: {obj['summary']['disagreements']}")
    report(7, "sweep output is byte deterministic", failures)


def test_acceptance_08_boundary_r8_r9():
    # the point-count thresholds switch on at eight points (freeness) and
    # nine points (very ampleness); sweep that boundary and surface any
    # checker/engine disagreement as a finding without auto-failing
    from fatpoints3.cli import _sweep_row

    rows = [
        _sweep_row(c, oracle.PRIMES, PROBE_SEEDS, PROBE_COUNT)
        for c in box_classes(dmax=6, rmin=8, rmax=9)
    ]
    failures = []
    expected = 7 * (45 + 55)  # degrees 0..6, multisets of {1,2,3} of size 8 and 9
    if len(rows) != expected:
        failures.append(f"boundary sweep produced {len(rows)} rows, expected {expected}")
    if not all(r["status"] in ("AGREE", "DISAGREE") for r in rows):
        failures.append("malformed status column")
    findings = [r for r in rows if r["status"] == "DISAGREE"]
    notes = [f"{len(rows)} boundary classes swept, {len(findings)} finding(s)"]
    for r in findings:
        notes.append(f"finding: {r['class']}: {', '.join(r['reasons'])}")
    report(8, "threshold boundary sweep completes", failures, notes)


def test_acceptance_09_freivalds_kernels():
    # every kernel K a pass in the fixture's order returns on seed 0 of each
    # prime satisfies its conditions M: M (K^T r) = 0 mod p for a seeded
    # random r, a false pass having probability 1/p per kernel.  K is the
    # identity on h0 of its columns, so its rows are independent and the
    # measured h0 is at most the true one
    failures = []
    checked = 0
    rng = np.random.default_rng(9)
    for c in box_classes():
        for prime in oracle.PRIMES:
            geom = oracle.get_geometry(prime, 0, max(oracle.DEFAULT_POINTS, c.r))
            sysd = oracle.solve_system(geom, c)
            kernel, h0 = sysd.kernel, sysd.h0
            if not h0:
                continue
            checked += 1
            r = rng.integers(0, prime, size=(h0, 1))
            forms = gfp.matmul_mod(kernel.T, r, prime)
            if gfp.matmul_mod(oracle.conditions_matrix(geom, c), forms, prime).any():
                failures.append(f"{format_class(c)}: prime {prime}: M K^T r != 0")
            units = ((kernel == 1).sum(axis=0) == 1) & ((kernel == 0).sum(axis=0) == h0 - 1)
            if set(kernel[:, units].argmax(axis=0).tolist()) != set(range(h0)):
                failures.append(f"{format_class(c)}: prime {prime}: no identity on {h0} columns")
    assert checked > 0
    report(9, "Freivalds check of every kernel", failures,
           [f"{checked} kernels with h0 > 0 checked, seed 0 of each prime"])
