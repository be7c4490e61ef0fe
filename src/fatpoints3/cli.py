"""Command line interface.

Subcommands:

* ``classify``: combinatorial verdicts (and optional induction
  certificates) for a space class;
* ``reduce``: quadratic-move reduction of a plane class, or of the plane
  model attached to a quadric or space class;
* ``vdim``: expected dimension bookkeeping for any class model;
* ``oracle``: exact finite-field dimensions and probes for one class;
* ``sweep``: enumerate classes in a box, compare the checkers against the
  numeric engine, and report every disagreement.

Exit codes: 0 success, 1 usage or configuration error, 2 at least one
checker/engine disagreement (sweep only), 3 internal invariant breach.
Output is byte deterministic for a fixed command line.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from typing import Optional, Sequence

from . import oracle as oracle_mod
from .criteria import (
    Goal,
    Mode,
    Verdict,
    build_certificate,
    classify,
)
from .divclass import (
    ClassParseError,
    PlaneClass,
    QuadricClass,
    ThreefoldClass,
    cremona_reduce,
    edim3,
    format_class,
    k_int,
    parse_class,
    quadric_to_plane,
    residual,
    restrict_to_quadric,
    restricted_plane_class,
    vdim2,
    vdim3,
    vdim_quadric,
)

SWEEP_CAP_DEGREE = 12
SWEEP_CAP_POINTS = 16
SWEEP_CAP_MULT = 5

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_INVARIANT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fatpoints3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p, with_csv=False):
        fmts = ["text", "json"] + (["csv"] if with_csv else [])
        p.add_argument("--format", choices=fmts, default="text",
                       help="output format (default: text)")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write output to FILE instead of stdout")

    p = sub.add_parser("classify", help="combinatorial verdicts for a space class")
    p.add_argument("cls", metavar="CLASS", help='e.g. "L3(5; 2^5, 1^7)"')
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.ON_ANTICANONICAL.value,
                   help="point position model (default: on-anticanonical)")
    p.add_argument("--certificates", action="store_true",
                   help="attach induction certificates for passing verdicts")
    add_common(p)

    p = sub.add_parser("reduce", help="quadratic-move reduction of a plane model")
    p.add_argument("cls", metavar="CLASS", help="a plane, quadric, or space class")
    add_common(p)

    p = sub.add_parser("vdim", help="expected-dimension bookkeeping")
    p.add_argument("cls", metavar="CLASS")
    add_common(p)

    p = sub.add_parser("oracle", help="exact finite-field dimensions and probes")
    p.add_argument("cls", metavar="CLASS")
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.ON_ANTICANONICAL.value)
    p.add_argument("--prime", type=int, action="append", default=None,
                   help="field size; repeat for several (default: built-in battery)")
    p.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    p.add_argument("--trials", type=int, default=len(oracle_mod.DEFAULT_SEEDS),
                   help="seeds per prime (default: %(default)s)")
    p.add_argument("--probes", type=int, default=oracle_mod.DEFAULT_PROBES,
                   help="probe points per category, 0 disables (default: %(default)s)")
    add_common(p)

    p = sub.add_parser("sweep", help="compare checkers against the engine on a box")
    p.add_argument("--dmin", type=int, default=0)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--rmax", type=int, default=6)
    p.add_argument("--mmax", type=int, default=1)
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.ON_ANTICANONICAL.value)
    p.add_argument("--prime", type=int, action="append", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=len(oracle_mod.DEFAULT_SEEDS))
    p.add_argument("--probes", type=int, default=16,
                   help="probe points per category, 0 keeps the sweep dimension-only "
                        "(default: %(default)s)")
    add_common(p, with_csv=True)

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(f"cannot write --out {out}: {err.strerror or err}") from None
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _require_space_class(c, command: str) -> ThreefoldClass:
    if not isinstance(c, ThreefoldClass):
        raise UsageError(f"{command} expects a space class L3(d; ...), got {format_class(c)}")
    return c


def _require_curve_mode(mode: Mode) -> None:
    if mode is not Mode.ON_ANTICANONICAL:
        raise UsageError(
            "the numeric engine places points on the anticanonical curve; "
            "general-position runs are not supported"
        )


# ---------------------------------------------------------------------------
# classify


def _classification_text(cl, certs) -> str:
    lines = [f"{format_class(cl.clazz)}  [{cl.mode.value}]"]
    lines.append(f"  vdim {cl.vdim}   edim {cl.edim}")
    rows = [
        ("nonspecial", cl.nonspecial.value, cl.nonspecial_conditions),
        ("base point free", str(cl.bpf).lower(), cl.bpf_conditions),
        ("very ample", str(cl.very_ample).lower(), cl.very_ample_conditions),
    ]
    for label, verdict, conds in rows:
        lines.append(f"  {label}: {verdict}")
        for c in conds:
            mark = "ok" if c.holds else "FAILS"
            lines.append(f"    {c.name}: {c.text}  [{mark}]")
    if cl.sufficiency_only:
        lines.append("  note: in this mode the verdicts are sufficient only")
    if certs is not None:
        for goal, cert in certs.items():
            if cert is None:
                lines.append(f"  certificate[{goal}]: not attempted (verdict not positive)")
            else:
                state = "ok" if cert["ok"] else f"FAILED at step {cert['failed_at']}"
                lines.append(f"  certificate[{goal}]: {state}, {len(cert['steps'])} steps")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    c = _require_space_class(parse_class(args.cls), "classify")
    mode = Mode(args.mode)
    cl = classify(c, mode=mode)
    certs = None
    if args.certificates:
        certs = {}
        for goal, passed in (
            (Goal.NONSPECIAL, cl.nonspecial is Verdict.YES),
            (Goal.BPF, cl.bpf),
            (Goal.VERY_AMPLE, cl.very_ample),
        ):
            certs[goal.value] = build_certificate(c, goal).to_dict() if passed else None
    if args.format == "json":
        obj = cl.to_dict()
        if certs is not None:
            obj["certificates"] = certs
        _emit(_json(obj), args.out)
    else:
        _emit(_classification_text(cl, certs), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    c = parse_class(args.cls)
    if isinstance(c, PlaneClass):
        plane, origin = c, "input"
    elif isinstance(c, QuadricClass):
        plane, origin = quadric_to_plane(c), "plane model of the quadric class"
    else:
        plane, origin = restricted_plane_class(c), "plane model of the quadric trace"
    log = cremona_reduce(plane)
    obj = {
        "schema": 1,
        "input": format_class(c),
        "plane_model": format_class(plane),
        "plane_model_origin": origin,
        "status": log.status.value,
        "standard": log.standard,
        "reason": log.reason,
        "steps": [
            {
                "indices": list(s.indices),
                "before": format_class(s.before),
                "after": format_class(s.after),
            }
            for s in log.steps
        ],
        "result": format_class(log.result),
    }
    if args.format == "json":
        _emit(_json(obj), args.out)
    else:
        lines = [f"{obj['input']}  ->  plane model {obj['plane_model']} ({origin})"]
        for i, s in enumerate(obj["steps"]):
            lines.append(f"  step {i}: {s['before']} -> {s['after']} on points {s['indices']}")
        lines.append(f"  result: {obj['result']}  [{obj['status']}]")
        if log.reason:
            lines.append(f"  reason: {log.reason}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# vdim


def cmd_vdim(args) -> int:
    c = parse_class(args.cls)
    if isinstance(c, ThreefoldClass):
        obj = {
            "schema": 1,
            "class": format_class(c),
            "vdim": vdim3(c),
            "edim": edim3(c),
            "quadric_trace": format_class(restrict_to_quadric(c)),
            "residual": format_class(residual(c)),
            "plane_model": format_class(restricted_plane_class(c)),
            "plane_model_k": k_int(restricted_plane_class(c)),
        }
    elif isinstance(c, QuadricClass):
        obj = {
            "schema": 1,
            "class": format_class(c),
            "vdim": vdim_quadric(c),
            "plane_model": format_class(quadric_to_plane(c)),
        }
    else:
        obj = {"schema": 1, "class": format_class(c), "vdim": vdim2(c)}
    if args.format == "json":
        _emit(_json(obj), args.out)
    else:
        lines = [f"{obj['class']}"]
        for key in sorted(obj):
            if key in ("schema", "class"):
                continue
            lines.append(f"  {key}: {obj[key]}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle


def _battery_args(args) -> tuple[tuple[int, ...], tuple[int, ...]]:
    primes = tuple(args.prime) if args.prime else oracle_mod.PRIMES
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.probes < 0:
        raise UsageError("--probes must not be negative")
    seeds = tuple(args.seed + i for i in range(args.trials))
    return primes, seeds


def cmd_oracle(args) -> int:
    c = _require_space_class(parse_class(args.cls), "oracle")
    _require_curve_mode(Mode(args.mode))
    primes, seeds = _battery_args(args)
    report = oracle_mod.run_battery(c, primes, seeds, probes=args.probes)
    if args.format == "json":
        _emit(_json(report.to_dict()), args.out)
    else:
        lines = [f"{format_class(report.clazz)}"]
        lines.append(
            f"  vdim {report.vdim}   edim {report.edim}   curve degree {report.curve_degree}"
        )
        dims = sorted({t.dim for t in report.trials})
        h1s = sorted({t.h1 for t in report.trials})
        lines.append(
            f"  dim {dims} h1 {h1s} over {len(report.trials)} geometries: "
            + ("matches edim" if report.matches_expected else "DEVIATES from edim")
        )
        for label, summary in (("base locus", report.base), ("separation", report.separation)):
            if summary is None:
                continue
            if summary.fired:
                witness = summary.first.witnesses[0]
                lines.append(f"  {label} probe: FIRED ({witness.kind})")
            else:
                lines.append(f"  {label} probe: quiet")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _sweep_classes(dmin, dmax, rmax, mmax):
    for d in range(dmin, dmax + 1):
        for r in range(rmax + 1):
            for combo in itertools.combinations_with_replacement(range(1, mmax + 1), r):
                yield ThreefoldClass(d, tuple(sorted(combo, reverse=True)))


def _sweep_row(c: ThreefoldClass, primes, seeds, probes: int) -> dict:
    cl = classify(c)
    report = oracle_mod.run_battery(c, primes, seeds, probes=probes)
    dims = [t.dim for t in report.trials]
    reasons = []
    if cl.nonspecial is Verdict.YES and any(x != cl.edim for x in dims):
        reasons.append("nonspecial-but-dimension-deviates")
    base_fired = sep_fired = None
    if probes > 0:
        base_fired = report.base.fired
        sep_fired = report.separation.fired
        if cl.bpf and base_fired:
            reasons.append("free-but-base-witness")
        if not cl.bpf and not base_fired:
            reasons.append("unfree-but-no-base-witness")
        if cl.very_ample and sep_fired:
            reasons.append("ample-but-separation-witness")
        if not cl.very_ample and cl.bpf and not sep_fired:
            reasons.append("inseparable-but-no-witness")
    return {
        "class": format_class(c),
        "vdim": cl.vdim,
        "edim": cl.edim,
        "nonspecial": cl.nonspecial.value,
        "bpf": cl.bpf,
        "very_ample": cl.very_ample,
        "dim_min": min(dims),
        "dim_max": max(dims),
        "h1_max": max(t.h1 for t in report.trials),
        "base_fired": base_fired,
        "separation_fired": sep_fired,
        "status": "DISAGREE" if reasons else "AGREE",
        "reasons": reasons,
    }


_SWEEP_COLUMNS = [
    "class", "vdim", "edim", "nonspecial", "bpf", "very_ample",
    "dim_min", "dim_max", "h1_max", "base_fired", "separation_fired",
    "status", "reasons",
]


def _sweep_text(rows, summary) -> str:
    widths = {k: len(k) for k in _SWEEP_COLUMNS}
    rendered = []
    for row in rows:
        flat = {k: _cell(row[k]) for k in _SWEEP_COLUMNS}
        rendered.append(flat)
        for k, v in flat.items():
            widths[k] = max(widths[k], len(v))
    lines = ["  ".join(k.ljust(widths[k]) for k in _SWEEP_COLUMNS)]
    for flat in rendered:
        lines.append("  ".join(flat[k].ljust(widths[k]) for k in _SWEEP_COLUMNS))
    lines.append(
        f"checked {summary['classes']} classes: "
        f"{summary['agree']} agree, {summary['disagree']} disagree"
    )
    for cls in summary["disagreements"]:
        lines.append(f"  DISAGREE: {cls}")
    return "\n".join(lines)


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ";".join(v) if v else "-"
    return str(v)


def cmd_sweep(args) -> int:
    if args.dmin < 0:
        raise UsageError("--dmin must not be negative")
    if args.dmax < args.dmin:
        raise UsageError("--dmax must be at least --dmin")
    if args.dmax > SWEEP_CAP_DEGREE:
        raise UsageError(f"--dmax={args.dmax} exceeds the sweep cap {SWEEP_CAP_DEGREE}")
    if args.rmax < 0 or args.rmax > SWEEP_CAP_POINTS:
        raise UsageError(f"--rmax={args.rmax} outside 0..{SWEEP_CAP_POINTS}")
    if args.mmax < 1 or args.mmax > SWEEP_CAP_MULT:
        raise UsageError(f"--mmax={args.mmax} outside 1..{SWEEP_CAP_MULT}")
    _require_curve_mode(Mode(args.mode))
    primes, seeds = _battery_args(args)

    rows = [
        _sweep_row(c, primes, seeds, args.probes)
        for c in _sweep_classes(args.dmin, args.dmax, args.rmax, args.mmax)
    ]
    disagreements = [r["class"] for r in rows if r["status"] == "DISAGREE"]
    summary = {
        "classes": len(rows),
        "agree": len(rows) - len(disagreements),
        "disagree": len(disagreements),
        "disagreements": disagreements,
    }
    obj = {
        "schema": 1,
        "config": {
            "dmin": args.dmin, "dmax": args.dmax, "rmax": args.rmax, "mmax": args.mmax,
            "primes": list(primes), "seeds": list(seeds), "probes": args.probes,
        },
        "rows": rows,
        "summary": summary,
    }
    if args.format == "json":
        _emit(_json(obj), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in _SWEEP_COLUMNS])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_sweep_text(rows, summary), args.out)
    return EXIT_DISAGREE if disagreements else EXIT_OK


# ---------------------------------------------------------------------------


_COMMANDS = {
    "classify": cmd_classify,
    "reduce": cmd_reduce,
    "vdim": cmd_vdim,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a command is required (classify, reduce, vdim, oracle, sweep)")
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ClassParseError as err:
        # the message already carries the offending position
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as err:
        print(f"internal invariant breach: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
