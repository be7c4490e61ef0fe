"""Record the reference outcome of every workload class.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one pass of each named workload (default: all) at the reference seed
and writes ``perfbench/reference/<workload>.jsonl.gz``, one record per class
in workload order.  It then runs a second seed and refuses to write when any
record differs, because the benchmark compares every seed's records with
this one reference.  Re-record only when the program's outcomes are meant
to change.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

import checkout
from run import NAMES


def records(name: str, seed: int) -> list[dict]:
    import workloads
    from fatpoints3 import oracle

    oracle.get_geometry.cache_clear()
    classes, fn = workloads.WORKLOADS[name]
    return [fn(c, seed) for c in classes]


def main(argv: list[str]) -> int:
    names = argv or list(NAMES)
    unknown = [n for n in names if n not in NAMES]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 1
    checkout.load_library()
    import bench

    os.makedirs(checkout.REFERENCE_DIR, exist_ok=True)
    for name in names:
        first = records(name, bench.REFERENCE_SEED)
        second = records(name, bench.REFERENCE_SEED + 1)
        differ = [a["class"] for a, b in zip(first, second) if a != b]
        if differ:
            print(f"error: {name}: records depend on the seed for {differ}", file=sys.stderr)
            return 1
        text = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in first)
        with open(bench.reference_path(name), "wb") as fh:
            fh.write(gzip.compress(text.encode("ascii"), mtime=0))
        print(f"{name}: {len(first)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
