"""Command line interface tests.

Everything goes through cli.main(argv) in-process; the acceptance suite
separately exercises the installed console script through a subprocess.
"""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints3 import cli, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "L3(5; 2^5, 1^7)")
    assert code == 0 and err == ""
    assert "vdim 28" in out and "edim 28" in out
    assert "nonspecial: yes" in out
    assert "base point free: true" in out
    assert "very ample: true" in out


def test_classify_json_shape(capsys):
    code, out, _ = run(capsys, "classify", "L3(3; 2, 1^5)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["class"] == "L3(3; 2, 1^5)"
    assert obj["mode"] == "on-anticanonical"
    assert obj["nonspecial"] == "yes"
    assert obj["vdim"] == 10
    names = [c["name"] for c in obj["bpf_conditions"]]
    assert names == ["c1", "c2", "c3"]


def test_classify_certificates_json(capsys):
    code, out, _ = run(capsys, "classify", "L3(5; 2^5, 1^7)",
                       "--certificates", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    certs = obj["certificates"]
    assert set(certs) == {"nonspecial", "bpf", "very-ample"}
    for cert in certs.values():
        assert cert is not None and cert["ok"] is True


def test_classify_certificates_skip_failed_goals(capsys):
    # L3(2; 1^9) fails every checker, so no certificate is attempted
    code, out, _ = run(capsys, "classify", "L3(2; 1^9)",
                       "--certificates", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["certificates"] == {"nonspecial": None, "bpf": None, "very-ample": None}


def test_classify_certificates_out_of_budget(capsys):
    # the chains need 100 and 70 steps, beyond the 64-step budget
    code, out, _ = run(capsys, "classify", "L3(1000; 100^9)", "--certificates")
    assert code == 0
    for goal in ("nonspecial", "bpf", "very-ample"):
        assert f"certificate[{goal}]: FAILED at step 64, 64 steps" in out
    code, out, _ = run(capsys, "classify", "L3(300; 70^3)", "--certificates")
    assert code == 0
    assert "certificate[bpf]: ok, 0 steps" in out
    assert "certificate[very-ample]: FAILED at step 64, 64 steps" in out


@pytest.mark.parametrize("extra", ((), ("--certificates",), ("--format", "json")))
def test_dropped_zero_warning_is_one_plain_line(capsys, extra):
    # the library warns through warnings.warn; the CLI prints the message
    # once, without the source file and line that would show the install path
    code, out, err = run(capsys, "classify", "L3(3; 1, 0, -2)", *extra)
    assert code == cli.EXIT_OK and out
    assert err == "warning: zero multiplicities dropped before applying point-count thresholds\n"
    assert run(capsys, "classify", "L3(3; 1, 0, -2)", *extra) == (code, out, err)


def test_classify_general_position_mode(capsys):
    code, out, _ = run(capsys, "classify", "L3(4; 2, 1^5)",
                       "--mode", "general-position", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "general-position"
    assert obj["verdict_strength"] == "sufficient-only"


def test_classify_text_in_general_position_notes_sufficiency(capsys):
    code, out, _ = run(capsys, "classify", "L3(4; 2, 1^5)", "--mode", "general-position")
    assert code == cli.EXIT_OK
    assert out.splitlines()[0] == "L3(4; 2, 1^5)  [general-position]"
    assert out.endswith("\n  note: in this mode the verdicts are sufficient only\n")


def test_classify_rejects_plane_class(capsys):
    code, _, err = run(capsys, "classify", "L2(4; 2^3)")
    assert code == 1
    assert "expects a space class" in err


# ---------------------------------------------------------------------------
# reduce / vdim


def test_reduce_plane_json(capsys):
    code, out, _ = run(capsys, "reduce", "L2(5; 3^3)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["plane_model_origin"] == "input"
    assert obj["status"] == "NotStandard"
    assert obj["result"] == "L2(1; -1^3)"
    assert len(obj["steps"]) == 1


def test_reduce_text_lists_each_step(capsys):
    code, out, _ = run(capsys, "reduce", "L2(5; 3^3)")
    assert code == cli.EXIT_OK
    assert out.splitlines() == [
        "L2(5; 3^3)  ->  plane model L2(5; 3^3) (input)",
        "  step 0: L2(5; 3^3) -> L2(1; -1^3) on points [0, 1, 2]",
        "  result: L2(1; -1^3)  [NotStandard]",
        "  reason: negative multiplicity with no degree-decreasing move left",
    ]


def test_reduce_accepts_space_and_quadric(capsys):
    code, out, _ = run(capsys, "reduce", "L3(2; 1^9)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["plane_model"] == "L2(3; 1^10)"
    assert obj["status"] == "InStandardForm"

    code, out, _ = run(capsys, "reduce", "LQ(2,2; 1^4)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["plane_model_origin"] == "plane model of the quadric class"


def test_vdim_outputs(capsys):
    code, out, _ = run(capsys, "vdim", "L3(2; 1^9)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vdim"] == 0 and obj["edim"] == 0
    assert obj["quadric_trace"] == "LQ(2,2; 1^9)"
    assert obj["plane_model"] == "L2(3; 1^10)"
    assert obj["plane_model_k"] == 1

    code, out, _ = run(capsys, "vdim", "LQ(3,2; 2, 1^2)", "--format", "json")
    assert code == 0
    assert json.loads(out)["vdim"] == 6

    code, out, _ = run(capsys, "vdim", "L2(4; 2^3)", "--format", "json")
    assert code == 0
    assert json.loads(out)["vdim"] == 5


# ---------------------------------------------------------------------------
# oracle


def test_oracle_json_report(capsys):
    code, out, _ = run(capsys, "oracle", "L3(2; 1^9)", "--prime", "1073741827",
                       "--trials", "2", "--probes", "0", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["class"] == "L3(2; 1^9)"
    assert len(obj["trials"]) == 2
    assert all(t["prime"] == 1073741827 for t in obj["trials"])
    assert obj["dim_min"] == obj["dim_max"] == 1
    assert obj["matches_expected"] is False
    assert obj["base_probes"] is None and obj["separation_probes"] is None


def test_oracle_probes_in_text(capsys):
    code, out, _ = run(capsys, "oracle", "L3(2; 1^7)", "--prime", "2147483647",
                       "--trials", "1", "--probes", "16")
    assert code == 0
    assert "base locus probe: FIRED" in out
    assert "separation probe: FIRED" in out
    # curve degree 2: no base point, and the conjugate hunt pairs curve points
    code, out, _ = run(capsys, "oracle", "L3(3; 1^10)", "--prime", "2147483647",
                       "--trials", "1", "--probes", "16")
    assert code == 0
    assert "base locus probe: quiet" in out
    assert "separation probe: FIRED (conjugate-pair)" in out


def test_oracle_rejects_general_position(capsys):
    code, _, err = run(capsys, "oracle", "L3(2; 1)", "--mode", "general-position")
    assert code == 1
    assert "anticanonical" in err


def test_oracle_argument_validation(capsys):
    code, _, err = run(capsys, "oracle", "L3(2; 1)", "--trials", "0")
    assert code == 1 and "--trials" in err
    # the oracle refuses a negative probe count; the CLI has no check of its own
    code, _, err = run(capsys, "oracle", "L3(2)", "--probes", "-1")
    assert code == 1 and err == "error: probes must not be negative, got -1\n"
    code, _, err = run(capsys, "oracle", "L3(2; 1)", "--prime", "97")
    assert code == 1 and "prime" in err


@pytest.mark.parametrize("command", (
    ["oracle", "L3(5; 2^5, 1^7)", "--prime", "65537"],
    ["sweep", "--dmin", "5", "--dmax", "5", "--rmax", "2", "--mmax", "1"],
))
def test_probes_above_the_maximum_are_an_error(capsys, monkeypatch, command):
    # refused before a geometry is built: no memory error, no traceback
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(oracle, "get_geometry", no_work)
    code, out, err = run(capsys, *command, "--trials", "1", "--probes", "1000000000")
    assert code == 1 and out == ""
    refused = f"probes must be at most {oracle.MAX_PROBES} per category, got 1000000000"
    assert err == f"error: {refused}\n"


# ---------------------------------------------------------------------------
# error handling


def child_env():
    """The environment of a fresh interpreter that imports this checkout,
    with one BLAS thread."""
    path = [str(pathlib.Path(oracle.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                OPENBLAS_NUM_THREADS="1")


def run_capped(argv, limit_bytes, timeout):
    """The command line in a fresh interpreter under an address-space limit."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run([sys.executable, "-m", "fatpoints3.cli", *argv],
                          capture_output=True, text=True, env=child_env(), preexec_fn=cap,
                          timeout=timeout)


def run_peak(snippet, timeout):
    """The snippet's stdout lines in a fresh interpreter, and that process's
    own peak resident memory in MB, which Linux reports in KB."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KB only on Linux")
    code = snippet + "\nimport resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env(), timeout=timeout)
    assert run.returncode == 0, run.stderr
    *lines, peak = run.stdout.split()
    return lines, int(peak) / 1024


def test_a_deep_point_costs_no_more_memory_than_a_simple_one():
    # each point holds the rows of its own multiplicity: the quintuple point
    # adds 34 rows, not 34 rows at every point
    battery = ("from fatpoints3 import oracle, parse_class\n"
               "report = oracle.run_battery(parse_class({!r}), (65537,), (0,), probes=0)\n"
               "print(report.trials[0].h0)")
    deep, deep_mb = run_peak(battery.format("L3(16; 5, 1^300)"), 120)
    simple, simple_mb = run_peak(battery.format("L3(16; 1^300)"), 120)
    assert (deep, simple) == (["875"], ["905"])
    assert abs(deep_mb - simple_mb) < 20, (deep_mb, simple_mb)


def test_oracle_on_a_thousand_points_stays_in_bounded_memory():
    # each of the 15 geometries holds one degree-16 row per simple point,
    # 8 MB where all 35 derivative rows took 259 MB; under a 2.5 GB address
    # space the run ends normally
    run = run_capped(["oracle", "L3(16; 1^1000)", "--probes", "0"], 2_500_000 * 1024, 600)
    assert "Traceback" not in run.stderr
    assert run.returncode == cli.EXIT_OK, run.stderr
    # the points lie on a quartic curve, so they impose 16 * 4 = 64
    # conditions on degree-16 forms: 969 - 64 forms are left
    assert "dim [904]" in run.stdout


def test_deep_points_among_six_hundred_fit_in_a_gib():
    # three quintuple points among 600 simple ones hold 705 rows per
    # geometry.  Order tables sized for every point ran out of memory under
    # this cap, and without it peaked at 1.37 GiB of address space; the
    # point store peaks at 0.27 GiB
    run = run_capped(["oracle", "L3(16; 5^3, 1^600)", "--probes", "0"], 2**30, 600)
    assert "Traceback" not in run.stderr
    assert run.returncode == cli.EXIT_OK, run.stderr
    assert "dim [814]" in run.stdout


@pytest.mark.parametrize("argv, refused", (
    # 640,001 Cremona moves, which ran out of memory under this cap
    (["reduce", "L2(102400640001; 34133653334^3, 34133546667^2, 34133546666, 34133440000^3)"],
     "error: the plane class of degree 102400640001 needs more than 1000 Cremona moves"),
    # a seeds tuple of 10^9 entries, which ran out of memory under this cap
    (["oracle", "L3(2; 1)", "--trials", "1000000000", "--probes", "0"],
     "error: a battery has at most 96 geometries, got 3000000000"),
    # 5 condition matrices of 70,000 rows by 969 columns, 2.53 GiB, which
    # ran out of memory under this cap
    (["oracle", "L3(16; 5^2000)", "--probes", "0"],
     "error: a prime's condition matrices hold at most 67108864 entries, got 339150000"),
))
def test_unbounded_work_is_refused_before_it_runs_out_of_memory(argv, refused):
    run = run_capped(argv, 600 * 2**20, 120)
    assert "Traceback" not in run.stderr
    assert run.returncode == cli.EXIT_USAGE == 1
    assert run.stderr == refused + "\n" and run.stdout == ""


def test_certificates_on_ten_thousand_points_stay_in_bounded_memory():
    # the very-ampleness certificate records 10,000 bumped classes of 10,000
    # points each; it keeps one start class and builds a bumped class only
    # when read, and the text output reads none, so the run fits in 400 MB
    # of address space where the bumped copies took 800 MB of memory
    run = run_capped(["classify", "L3(10000; 1^10000)", "--certificates"], 400 * 2**20, 120)
    assert "Traceback" not in run.stderr
    assert run.returncode == cli.EXIT_OK, run.stderr
    assert "certificate[very-ample]: ok, 1 steps" in run.stdout


def test_certificate_json_on_ten_thousand_points_stays_in_bounded_memory():
    # each of the 10,000 bumped classes is spliced from the start's caret
    # runs, so the JSON takes time linear in its 1.2 MB
    run = run_capped(["classify", "L3(10000; 1^10000)", "--certificates", "--format", "json"],
                     400 * 2**20, 120)
    assert "Traceback" not in run.stderr
    assert run.returncode == cli.EXIT_OK, run.stderr
    assert len(run.stdout.encode()) == 1_192_516
    checks = json.loads(run.stdout)["certificates"]["very-ample"]["augmented_bpf_checks"]
    assert [a["class"] for a in checks[:2]] == ["L3(10000; 2, 1^9999)", "L3(10000; 1, 2, 1^9998)"]
    assert checks[-1] == {"index": 9999, "class": "L3(10000; 1^9999, 2)", "bpf": True}


@pytest.mark.parametrize("text, reason", (
    ("L3(2; 1^0)", "exponent must be positive (at position 8)"),
    ("L3(-4)", "degree below -3 is outside the model"),
    ("L3(-1; -1)", "negative multiplicity"),
))
def test_oracle_refuses_a_class_outside_the_model(capsys, text, reason):
    code, out, err = run(capsys, "oracle", text)
    assert code == cli.EXIT_USAGE and out == ""
    assert err == f"error: {reason}\n"


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "classify", "L3(2; 1^")
    assert code == 1
    assert "position" in err


def test_missing_command(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "command is required" in err


def test_an_invariant_breach_exits_3(capsys, monkeypatch):
    def breach(*args, **kwargs):
        raise AssertionError("interpolation rank exceeded the condition count for L3(2; 1)")

    monkeypatch.setattr(oracle, "run_battery", breach)
    code, out, err = run(capsys, "oracle", "L3(2; 1)", "--trials", "1")
    assert (code, out) == (cli.EXIT_INVARIANT, "")
    assert err == ("internal invariant breach: "
                   "interpolation rank exceeded the condition count for L3(2; 1)\n")


def test_running_out_of_memory_is_an_error_line():
    # L3(16; 5^16) passes the size checks, but its first prime's stack of
    # (5, 560, 969) int64 rows does not fit in 120 MiB of address space,
    # neither beside whole int64 kernels nor beside int32 blocks.  Near
    # 160 MiB OpenBLAS gives up before numpy raises anything
    run = run_capped(["oracle", "L3(16; 5^16)", "--probes", "0"], 120 * 2**20, 120)
    assert "Traceback" not in run.stderr
    assert run.returncode == cli.EXIT_USAGE == 1 and run.stdout == ""
    assert run.stderr.startswith("error: out of memory: Unable to allocate ")
    assert run.stderr.count("\n") == 1


def test_a_memory_error_without_a_message_is_an_error_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(oracle, "run_battery", exhausted)
    code, out, err = run(capsys, "oracle", "L3(2; 1)", "--trials", "1")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: out of memory: an allocation failed\n"


def no_curve_points(words, count):
    return np.zeros((count, 4), dtype=np.int64), np.zeros(count, dtype=bool)


@pytest.mark.parametrize("target, name, stand_in", (
    (oracle, "_squarefree_binary_form", lambda *args: False),
    (oracle._Words, "curve", no_curve_points),
))
def test_a_geometry_that_cannot_be_built_is_an_error(capsys, monkeypatch, target, name, stand_in):
    # build_geometry draws a new curve while its discriminant is not
    # squarefree or its points run out, and gives up after 256 curves
    # rather than loop for ever
    oracle.get_geometry.cache_clear()
    monkeypatch.setattr(target, name, stand_in)
    code, out, err = run(capsys, "oracle", "L3(2; 1)", "--trials", "1", "--prime", "1073741827")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: no smooth configuration found for prime=1073741827 seed=0\n"


def test_a_dimension_below_the_expected_one_is_an_invariant_breach(capsys, monkeypatch):
    # the rows of a class cut at most their count from the space, so at
    # least vdim3 + 1 forms are left and fewer mean a wrong elimination; a
    # virtual dimension one too large stands in for one
    vdim3 = oracle.vdim3
    monkeypatch.setattr(oracle, "vdim3", lambda c: vdim3(c) + 1)
    code, out, err = run(capsys, "oracle", "L3(2; 1)", "--trials", "1", "--probes", "0")
    assert (code, out) == (cli.EXIT_INVARIANT, "")
    assert err == ("internal invariant breach: "
                   "interpolation rank exceeded the condition count for L3(2; 1)\n")


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "classify", "L3(1)", "--bogus")
    assert code == 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_cap_validation(capsys):
    for argv, frag in [
        (["sweep", "--dmax", "13"], "sweep cap"),
        (["sweep", "--rmax", "17"], "--rmax"),
        (["sweep", "--mmax", "0"], "--mmax"),
        (["sweep", "--mmax", "6"], "--mmax"),
        (["sweep", "--dmin", "-1"], "--dmin"),
        (["sweep", "--dmin", "3", "--dmax", "2"], "--dmax"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert frag in err, argv


def test_sweep_rejects_general_position(capsys):
    code, _, err = run(capsys, "sweep", "--dmax", "1", "--rmax", "1",
                       "--mode", "general-position")
    assert code == 1
    assert "anticanonical" in err


def test_sweep_small_box_all_agree(capsys):
    # every class with d <= 3 and at most six simple points matches the
    # engine on both dimensions and probe outcomes
    code, out, _ = run(capsys, "sweep", "--dmax", "3", "--rmax", "6",
                       "--mmax", "1", "--trials", "1", "--probes", "8",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["classes"] == 28
    assert obj["summary"]["disagree"] == 0
    assert all(row["status"] == "AGREE" for row in obj["rows"])


def test_sweep_flags_eighth_point_class(capsys):
    # seven simple points on the quadric intersection impose the classical
    # eighth associated point on every quadric through them, which the
    # printed small-r rule does not see: the comparator must report it
    code, out, _ = run(capsys, "sweep", "--dmin", "2", "--dmax", "2",
                       "--rmax", "7", "--mmax", "1", "--trials", "1",
                       "--probes", "8", "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert obj["summary"]["disagreements"] == ["L3(2; 1^7)"]
    bad = [r for r in obj["rows"] if r["status"] == "DISAGREE"]
    assert len(bad) == 1
    assert bad[0]["reasons"] == ["free-but-base-witness"]


def test_sweep_probeless_rows_have_null_probe_fields(capsys):
    code, out, _ = run(capsys, "sweep", "--dmax", "1", "--rmax", "2",
                       "--mmax", "1", "--trials", "1", "--probes", "0",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    for row in obj["rows"]:
        assert row["base_fired"] is None
        assert row["separation_fired"] is None
        for reason in row["reasons"]:
            assert reason == "nonspecial-but-dimension-deviates"


def test_sweep_text_table_at_zero_probes(capsys):
    code, out, err = run(capsys, "sweep", "--dmax", "1", "--rmax", "1", "--mmax", "1",
                         "--trials", "1", "--probes", "0")
    assert code == cli.EXIT_OK and err == ""
    lines = out.splitlines()
    assert len(lines) == 6 and len({len(line) for line in lines[:5]}) == 1
    assert lines[0].split() == cli._SWEEP_COLUMNS
    # the unprobed fields and the empty reason list print as "-"
    assert lines[1].split() == ["L3(0)", "0", "0", "yes", "true", "false",
                                "0", "0", "0", "-", "-", "AGREE", "-"]
    assert lines[-1] == "checked 4 classes: 4 agree, 0 disagree"


def test_sweep_text_lists_each_disagreement(capsys):
    code, out, _ = run(capsys, "sweep", "--dmin", "2", "--dmax", "2", "--rmax", "7",
                       "--mmax", "1", "--trials", "1", "--probes", "8")
    assert code == cli.EXIT_DISAGREE
    lines = out.splitlines()
    assert lines[-3].split()[-2:] == ["DISAGREE", "free-but-base-witness"]
    assert lines[-2:] == ["checked 8 classes: 7 agree, 1 disagree", "  DISAGREE: L3(2; 1^7)"]


@pytest.mark.parametrize("verdicts, fired, reason", (
    ({"edim": 10}, (False, False), "nonspecial-but-dimension-deviates"),
    ({"bpf": False, "very_ample": False}, (False, False), "unfree-but-no-base-witness"),
    ({}, (False, True), "ample-but-separation-witness"),
    ({"very_ample": False}, (False, False), "inseparable-but-no-witness"),
))
def test_sweep_gives_each_disagreement_its_reason(capsys, monkeypatch, verdicts, fired, reason):
    # L3(2) agrees: the checkers call it nonspecial with edim 9, free and
    # very ample, its dimension is 9 and no probe fires.  Each case changes
    # the verdicts or the probe flags so that one rule disagrees
    classify, battery = cli.classify, oracle.run_battery

    def flagged(*args, **kwargs):
        report = battery(*args, **kwargs)
        return dataclasses.replace(
            report, base=dataclasses.replace(report.base, fired=fired[0]),
            separation=dataclasses.replace(report.separation, fired=fired[1]))

    monkeypatch.setattr(cli, "classify", lambda c: dataclasses.replace(classify(c), **verdicts))
    monkeypatch.setattr(oracle, "run_battery", flagged)
    code, out, _ = run(capsys, "sweep", "--dmin", "2", "--dmax", "2", "--rmax", "0",
                       "--trials", "1", "--probes", "1", "--format", "json")
    assert code == cli.EXIT_DISAGREE
    [row] = json.loads(out)["rows"]
    assert (row["class"], row["nonspecial"], row["dim_min"]) == ("L3(2)", "yes", 9)
    assert row["reasons"] == [reason]


def test_sweep_csv_format(capsys):
    code, out, _ = run(capsys, "sweep", "--dmax", "1", "--rmax", "1",
                       "--mmax", "1", "--trials", "1", "--probes", "4",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("class,vdim,edim,nonspecial")
    assert len(lines) == 1 + 4  # header + L3(0), L3(0;1), L3(1), L3(1;1)


def test_sweep_output_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, out, _ = run(capsys, "sweep", "--dmax", "2", "--rmax", "3",
                           "--mmax", "2", "--trials", "1", "--probes", "6",
                           "--format", "json", "--out", str(path))
        assert code == 0
        assert out == ""  # --out suppresses stdout
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_oracle_and_sweep_parse_battery_options_alike():
    parser = cli._build_parser()
    given_args = ["--mode", "general-position", "--prime", "65537", "--prime", "1000003",
                  "--seed", "7", "--trials", "2", "--probes", "5"]
    parsed = {"mode": "general-position", "prime": [65537, 1000003], "seed": 7,
              "trials": 2, "probes": 5}
    defaults = {"mode": "on-anticanonical", "prime": None, "seed": 0, "trials": 5}
    for command, probes in ((["oracle", "L3(2; 1)"], 64), (["sweep"], 16)):
        args = vars(parser.parse_args(command + given_args))
        assert {k: args[k] for k in parsed} == parsed
        args = vars(parser.parse_args(command))
        assert {k: args[k] for k in parsed} == dict(defaults, probes=probes)
    bad = {
        ("--seed", "x"): "argument --seed: invalid int value: 'x'",
        ("--trials", "1.5"): "argument --trials: invalid int value: '1.5'",
        ("--mode", "nowhere"): "argument --mode: invalid choice: 'nowhere' "
                               "(choose from 'on-anticanonical', 'general-position')",
    }
    for argv, message in bad.items():
        for command in (["oracle", "L3(2; 1)"], ["sweep"]):
            with pytest.raises(cli.UsageError, match=f"^{re.escape(message)}$"):
                parser.parse_args(command + list(argv))


def test_csv_not_offered_outside_sweep(capsys):
    code, _, err = run(capsys, "classify", "L3(1)", "--format", "csv")
    assert code == 1


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # a missing directory and a directory in place of the file
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        code, out, err = run(capsys, "classify", "L3(5; 2^5, 1^7)", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write --out") and "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzzing the cheap subcommands: any input ends in an exit code, never a
# traceback


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exit, e.g. on -h
            code = exc.code
    return code, err.getvalue()


@st.composite
def class_texts(draw):
    """Class strings of any of the three models, or arbitrary text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=30))
    head = draw(st.sampled_from(("L3", "LQ", "L2")))
    degs = [draw(st.integers(-5, 40)) for _ in range(2 if head == "LQ" else 1)]
    items = draw(st.lists(
        st.tuples(st.integers(-3, 12), st.none() | st.integers(0, 12)), max_size=8
    ))
    body = ", ".join(f"{m}" if k is None else f"{m}^{k}" for m, k in items)
    return f"{head}({','.join(map(str, degs))}; {body})"


@st.composite
def cheap_argv(draw):
    command = draw(st.sampled_from(("classify", "vdim", "reduce", "oracle")))
    if command == "oracle":
        d = draw(st.integers(-5, 3))
        mults = draw(st.lists(st.integers(-1, 6), max_size=18))
        probes = draw(st.integers(0, 2))
        text = f"L3({d}; {', '.join(map(str, mults))})"
        return ["oracle", text, "--trials", "1", "--probes", str(probes)]
    argv = [command, draw(class_texts())]
    argv += ["--format", draw(st.sampled_from(("text", "json", "csv")))]
    if command == "classify":
        argv += ["--mode", draw(st.sampled_from(("on-anticanonical", "general-position", "x")))]
        argv += ["--certificates"] if draw(st.booleans()) else []
    return argv


@pytest.mark.filterwarnings("ignore:zero multiplicities dropped")
@settings(max_examples=200, deadline=None)
@given(cheap_argv())
def test_cli_fuzz_exits_cleanly(argv):
    code, err = run_quietly(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv


# ---------------------------------------------------------------------------
# the public contract: exported names and exit codes


PUBLIC_NAMES = [
    "Certificate", "ClassParseError", "Classification", "Condition", "CremonaStep",
    "DEFAULT_PROBES", "DEFAULT_SEEDS", "Geometry", "Goal", "Mode", "OracleReport",
    "PRIMES", "PlaneClass", "QuadricClass", "ReductionLog", "ReductionStatus",
    "SurfaceCheck", "SystemData", "ThreefoldClass", "Verdict", "__version__",
    "build_certificate", "build_geometry", "check_bpf", "check_nonspecial",
    "check_very_ample", "classify", "conditions_matrix", "cremona_reduce", "edim3",
    "format_class", "get_geometry", "is_standard_form", "k_int", "pair", "parse_class",
    "plane_canonical", "probe_base_locus", "probe_separation", "quadric_canonical",
    "quadric_to_plane", "residual", "restrict_to_quadric", "restricted_plane_class",
    "run_battery", "self_int", "solve_system", "surface_predicate", "vdim2", "vdim3",
    "vdim_quadric",
]


def test_public_contract():
    import fatpoints3

    assert sorted(fatpoints3.__all__) == PUBLIC_NAMES
    assert all(hasattr(fatpoints3, name) for name in PUBLIC_NAMES)
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DISAGREE, cli.EXIT_INVARIANT) == (0, 1, 2, 3)
