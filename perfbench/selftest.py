"""Self-test of the benchmark harness on a tiny slice of each workload.

    python3 perfbench/selftest.py

Checks that every metric the harness prints has the name and unit that
``BENCHMARK.json`` declares, that traced self times add up to the traced
wall time, that a second seed reproduces the reference records, that a
tampered reference record counts as failed, and that the benchmark refuses
to run in a checkout without the program's sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checkout
from run import NAMES

# Cheap classes of each workload, by position in its class list.
SLICES = {
    "sweep_box": [0, 1, 2, 3],
    "oracle_classes": [7, 4],  # L3(2; 1^7) and L3(3; 1^10)
    "certify_box": list(range(0, 16473, 83)),
}


def declared() -> tuple[list[str], dict, dict]:
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return workloads, end_to_end, per_layer


def units_of(result: dict) -> dict:
    return {k: m["unit"] for k, m in result["metrics"].items()}


def check_slice(name: str, end_to_end: dict, per_layer: dict) -> list[str]:
    import bench
    import workloads

    problems = []
    all_classes = workloads.WORKLOADS[name][0]
    full_reference = bench.load_reference(name)
    classes = [all_classes[i] for i in SLICES[name]]
    reference = [full_reference[i] for i in SLICES[name]]

    for seed in (bench.REFERENCE_SEED, bench.REFERENCE_SEED + 1):
        out = bench.benchmark(name, seed, 0, False, classes, reference)["result"]
        if not out["correct"] or out["attempted"] != len(classes):
            problems.append(f"{name} seed {seed}: {out['failed']} of {out['attempted']} failed")
        if units_of(out) != end_to_end:
            problems.append(f"{name}: end-to-end metrics {units_of(out)} != {end_to_end}")

    traced = bench.benchmark(name, bench.REFERENCE_SEED, 0, True, classes, reference)["result"]
    if units_of(traced) != per_layer:
        missing = sorted(set(per_layer) ^ set(units_of(traced)))
        problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json: {missing}")
    wall = traced["metrics"]["trace.wall_s"]["value"]
    self_sum = traced["metrics"]["trace.self_sum_s"]["value"]
    if abs(wall - self_sum) > 1e-6 * max(wall, 1.0):
        problems.append(f"{name}: self times sum to {self_sum} s, traced wall time {wall} s")

    tampered = copy.deepcopy(reference)
    key = next(k for k in tampered[0] if k != "class")
    tampered[0][key] = "tampered"
    out = bench.benchmark(name, bench.REFERENCE_SEED, 0, False, classes, tampered)["result"]
    if out["correct"] or out["failed"] != 1:
        problems.append(f"{name}: a tampered record gave failed={out['failed']}, not 1")
    return problems


def check_without_sources() -> list[str]:
    """The benchmark alone, without ``src``, must exit non-zero silently."""
    bare = os.path.join(checkout.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(checkout.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(checkout.ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify_box",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return [f"without sources: exit {out.returncode}, stdout {out.stdout!r}"]
    return []


def main() -> int:
    checkout.load_library()
    names, end_to_end, per_layer = declared()
    problems = []
    if tuple(names) != NAMES:
        problems.append(f"BENCHMARK.json workloads {names} != {list(NAMES)}")
    for name in NAMES:
        problems += check_slice(name, end_to_end, per_layer)
    problems += check_without_sources()
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
