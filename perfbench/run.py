"""Closed-loop benchmark of fatpoints3 on three fixed workloads.

    python3 perfbench/run.py --workload sweep_box --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One caller runs the classes of a workload one after another, each class
starting when the previous one has finished.  A run makes as many whole
passes over the workload's class list as fit ``--seconds`` at the
workload's nominal pass time, at least one.  Class times are calibrated
against a fixed piece of work, and each class is timed at its fastest
pass.  Every class's record is compared with the stored reference in
``perfbench/reference``; a class that raises or differs counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced pass, with spans around each layer's public
functions, and prints the per-layer metrics and the tracing overhead; the
spans are written to ``perfbench/out``.  ``--workload all`` runs every
workload in its own fresh interpreter and prints one table.

The last line of standard output is the result as one JSON object; the line
before it holds the run's details and environment stamp.  The program is
imported from ``src`` of the checkout that holds this file; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import checkout

NAMES = ("sweep_box", "oracle_classes", "certify_box")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh interpreter, then one table."""
    import bench

    results = {}
    for name in NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=900,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"error: {name} exited with code {out.returncode}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        results[name] = {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}
        print("\n".join(bench.summary_lines(results[name])), flush=True)
    print(json.dumps({
        "correct": all(o["result"]["correct"] for o in results.values()),
        "attempted": sum(o["result"]["attempted"] for o in results.values()),
        "failed": sum(o["result"]["failed"] for o in results.values()),
        "workloads": {k: o["result"]["metrics"] for k, o in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="oracle base seed; geometry seeds are seed..seed+4")
    parser.add_argument("--seconds", type=float, default=35,
                        help="measuring time at the nominal pass times")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    try:
        checkout.load_library()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        import bench

        out = bench.benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except checkout.BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("\n".join(bench.summary_lines(out)), file=sys.stderr)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
