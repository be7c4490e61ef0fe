"""Byte-identity of oracle output against recorded golden data.

The benchmark references keep only fired flags and witness kinds.  These
goldens pin every witness point and direction and every per-category
``checked`` count, so a change to how the probes evaluate their candidates
must reproduce the draws, the skip rules and the stopping point exactly.

The data under ``tests/data`` holds:

* the JSON stdout of ``fatpoints3 oracle CLASS --format json --trials 2
  --probes 16`` for the benchmark's twelve oracle classes, one class whose
  base ``on-line`` probe fires, and one class with a single assigned point;
* each probe report of those classes on every geometry of that battery,
  fired or not, so quiet reports have their counts pinned too;
* the same for three classes on a mixed-prime battery, ``--prime 65537
  --prime 2147483647``: one probe stack then holds a layer whose square
  roots go through Tonelli-Shanks and one whose roots are a power;
* the JSON stdout of ``fatpoints3 sweep --format json --dmax 3 --rmax 6
  --mmax 2 --probes 8``;
* the JSON stdout of ``fatpoints3 sweep --format json --dmax 2 --rmax 3
  --prime 65537 --probes 4``: a prime congruent to 1 mod 4, where square
  roots go through Tonelli-Shanks (twelve classes, all AGREE).

To re-record (only ever on purpose, from a commit whose output is trusted):

    PYTHONPATH=src python3 tests/test_oracle_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from fatpoints3 import cli, oracle
from fatpoints3.divclass import parse_class

DATA = pathlib.Path(__file__).parent / "data"
ORACLE_FILE = DATA / "golden_oracle.json"
MIXED_FILE = DATA / "golden_oracle_mixed.json"
SWEEP_FILE = DATA / "golden_sweep.json"
SWEEP_TS_FILE = DATA / "golden_sweep_65537.json"

ORACLE_CLASSES = (
    # the benchmark's oracle_classes list
    "L3(5; 2^5, 1^7)", "L3(4; 1^8)", "L3(6; 3, 2^6, 1^4)", "L3(9; 4, 3^6, 2^4)",
    "L3(3; 1^10)", "L3(8; 3^10)", "L3(7; 2^13)",
    "L3(2; 1^7)", "L3(4; 2, 1^13)", "L3(8; 3^10, 1)", "L3(10; 3^13)",
    "L3(8; 3^12)",
    # the base on-line probe fires: the line through the two deepest points
    # lies in the base locus (4 + 3 > 6)
    "L3(6; 4, 3)",
    # one assigned point: the line probes draw random lines through it
    "L3(1; 1)",
)
# a prime congruent to 1 mod 4 beside one congruent to 3 mod 4
MIXED_PRIMES = (65537, 2147483647)
MIXED_CLASSES = ("L3(5; 2^5, 1^7)", "L3(6; 4, 3)", "L3(1; 1)")
ORACLE_ARGS = ("--format", "json", "--trials", "2", "--probes", "16")
SWEEP_ARGS = ("sweep", "--format", "json", "--dmax", "3", "--rmax", "6",
              "--mmax", "2", "--probes", "8")
SWEEP_TS_ARGS = ("sweep", "--format", "json", "--dmax", "2", "--rmax", "3",
                 "--prime", "65537", "--probes", "4")
TRIAL_SEEDS = (0, 1)
REPORT_PROBES = 16


def _cli_stdout(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code in (0, 2), (argv, code)
    return buf.getvalue()


def _oracle_stdout(txt: str, primes: tuple = ()) -> str:
    return _cli_stdout("oracle", txt, *ORACLE_ARGS,
                       *(arg for p in primes for arg in ("--prime", str(p))))


def _probe_reports(txt: str, primes: tuple = oracle.PRIMES) -> list:
    """Both probe reports of the class on every geometry of the battery."""
    c = parse_class(txt)
    out = []
    for prime in primes:
        for seed in TRIAL_SEEDS:
            geom = oracle.get_geometry(prime, seed)
            sysd = oracle.solve_system(geom, c)
            out.append([
                prime, seed,
                oracle.probe_base_locus(geom, c, REPORT_PROBES, sysd).to_dict(),
                oracle.probe_separation(geom, c, REPORT_PROBES, sysd).to_dict(),
            ])
    return out


def _mixed_entry(txt: str) -> dict:
    return {"stdout": _oracle_stdout(txt, MIXED_PRIMES),
            "reports": _probe_reports(txt, MIXED_PRIMES)}


def _sweep_stdout() -> str:
    return _cli_stdout(*SWEEP_ARGS)


@pytest.fixture(scope="module")
def golden_oracle() -> dict:
    return json.loads(ORACLE_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("txt", ORACLE_CLASSES)
def test_oracle_cli_bytes(golden_oracle, txt):
    assert _oracle_stdout(txt) == golden_oracle[txt]["stdout"]


@pytest.mark.parametrize("txt", ORACLE_CLASSES)
def test_probe_reports_per_geometry(golden_oracle, txt):
    got = json.loads(json.dumps(_probe_reports(txt)))
    assert got == golden_oracle[txt]["reports"]


@pytest.mark.parametrize("txt", MIXED_CLASSES)
def test_mixed_prime_battery(txt):
    golden = json.loads(MIXED_FILE.read_text(encoding="utf-8"))[txt]
    assert json.loads(json.dumps(_mixed_entry(txt))) == golden


def test_sweep_cli_bytes():
    assert _sweep_stdout() == SWEEP_FILE.read_text(encoding="utf-8")


def test_sweep_cli_bytes_at_prime_one_mod_four():
    assert _cli_stdout(*SWEEP_TS_ARGS) == SWEEP_TS_FILE.read_text(encoding="utf-8")


def test_goldens_cover_every_pair_category(golden_oracle):
    # the recorded reports reach each random category at least once, so the
    # byte checks above pin their draw order and counts
    seen = set()
    for entry in golden_oracle.values():
        for _, _, base, sep in entry["reports"]:
            seen.update(base["checked"])
            seen.update(sep["checked"])
    assert {
        "on-line", "on-curve", "generic", "pair-on-line", "pair-on-curve",
        "pair-generic", "pair-mixed", "tangent-generic", "tangent-on-curve",
    } <= seen


def record() -> None:
    DATA.mkdir(exist_ok=True)
    golden = {
        txt: {"stdout": _oracle_stdout(txt), "reports": _probe_reports(txt)}
        for txt in ORACLE_CLASSES
    }
    ORACLE_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    mixed = {txt: _mixed_entry(txt) for txt in MIXED_CLASSES}
    MIXED_FILE.write_text(json.dumps(mixed, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    SWEEP_FILE.write_text(_sweep_stdout(), encoding="utf-8")
    SWEEP_TS_FILE.write_text(_cli_stdout(*SWEEP_TS_ARGS), encoding="utf-8")


if __name__ == "__main__":
    record()
