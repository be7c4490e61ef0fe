"""Measurement of one workload: set-up, timed passes, traced pass, records.

Import after ``checkout.load_library()`` has put the program on the path.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy

import calibrate
import spans
import workloads
from checkout import HERE, OUT_DIR, REFERENCE_DIR, ROOT, SRC, BenchError
from fatpoints3 import oracle

REFERENCE_SEED = 0
SETUP_REPEATS = 6
P90_MIN_CLASSES = 100
CALIBRATE_EVERY_S = 0.2

# Import plus the 15 default geometries, timed inside a fresh interpreter,
# then the calibration work in the same interpreter, which may run on
# another core than the harness.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fatpoints3 import oracle
seed = int(sys.argv[2])
for prime in oracle.PRIMES:
    for s in range(seed, seed + len(oracle.DEFAULT_SEEDS)):
        oracle.get_geometry(prime, s)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import calibrate
print(elapsed, sorted(calibrate.sample() for _ in range(3))[1])
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "classes_per_s": "1/s",
    "class_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.jsonl.gz")


def load_reference(name: str) -> list[dict]:
    with gzip.open(reference_path(name), "rt", encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


def environment(name: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload_size": workloads.sizes(name),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_samples(seed: int, n: int) -> list[float]:
    """Set-up times of ``n`` fresh interpreters, in reference seconds."""
    samples = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, str(seed), HERE],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up child failed: {out.stderr.strip()}")
        elapsed, cal = map(float, out.stdout.split())
        samples.append(elapsed * calibrate.REFERENCE_S / cal)
    return samples


def run_class(fn, c, seed, expected) -> tuple[float, bool]:
    """Seconds one class takes, and whether it raised or its record differs.

    Every field of a record is seed independent (``record.py`` checks this
    on a second seed), so one reference serves every workload seed.
    """
    t0 = time.perf_counter()
    try:
        record = fn(c, seed)
    except Exception:  # a failing class is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        record = None
    return time.perf_counter() - t0, record != expected


def run_pass(classes, fn, seed, reference) -> tuple[list[float], int]:
    """One pass: per-class times in reference seconds, and the failures.

    ``reference[i]`` is the expected record of ``classes[i]``.  The
    calibration work runs between classes at least every
    ``CALIBRATE_EVERY_S``; each class is scaled by the mean of the
    calibrations before and after it.
    """
    times: list[float] = []
    failed = 0
    block_start = 0
    last_cal = calibrate.sample()
    block_t0 = time.perf_counter()
    for c, expected in zip(classes, reference):
        seconds, bad = run_class(fn, c, seed, expected)
        times.append(seconds)
        failed += bad
        if len(times) == len(classes) or time.perf_counter() - block_t0 >= CALIBRATE_EVERY_S:
            cal = calibrate.sample()
            scale = 2 * calibrate.REFERENCE_S / (last_cal + cal)
            for i in range(block_start, len(times)):
                times[i] *= scale
            block_start, last_cal, block_t0 = len(times), cal, time.perf_counter()
    return times, failed


def run_passes(classes, fn, seed, reference, npasses) -> tuple[list[list[float]], int]:
    """``npasses`` passes: per-pass class times and the failures."""
    passes: list[list[float]] = []
    failed = 0
    for _ in range(npasses):
        times, bad = run_pass(classes, fn, seed, reference)
        passes.append(times)
        failed += bad
    return passes, failed


def pass_count(name: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends on the workload and ``seconds`` alone, never on the
    speed of the run, so two commits measure the same work.
    """
    return max(1, round(seconds / workloads.NOMINAL_PASS_S[name]))


def percentile_ms(times: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of the class times, in ms.

    A Beta-weighted mean of all order statistics.  On a dozen uneven class
    times it moves smoothly where the sample quantile jumps from one class
    to the next; on hundreds of classes the two agree.
    """
    xs = sorted(times)
    n = len(xs)
    if n == 1:
        return xs[0] * 1e3
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    sub = -(-2000 // n)  # Beta density samples per order statistic
    logw = [
        [(a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
         for u in ((i + (k + 0.5) / sub) / n for k in range(sub))]
        for i in range(n)
    ]
    top = max(max(row) for row in logw)
    weights = [sum(math.exp(v - top) for v in row) for row in logw]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights) * 1e3


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              classes=None, reference=None) -> dict:
    """One run of one workload; returns the detail record and the result.

    ``classes`` with its aligned ``reference`` narrows the run to a slice of
    the workload, as the self-test does.
    """
    all_classes, fn = workloads.WORKLOADS[name]
    if classes is None:
        classes, reference = all_classes, load_reference(name)
    if len(reference) != len(classes):
        raise BenchError(f"{len(reference)} reference records for {len(classes)} classes")
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "loop": "closed, one caller",
        "env": environment(name),
    }
    if trace:
        metrics, attempted, failed = traced_run(name, classes, fn, seed, reference, detail)
        units = spans.layer_metric_units()
    else:
        setup = setup_samples(seed, SETUP_REPEATS // 2)
        warm_geometries(seed)
        passes, failed = run_passes(classes, fn, seed, reference, pass_count(name, seconds))
        setup += setup_samples(seed, SETUP_REPEATS - SETUP_REPEATS // 2)
        # each class at its fastest pass: other tenants' load only slows a run
        best = [min(col) for col in zip(*passes)]
        attempted = len(classes) * len(passes)
        metrics = {
            "setup_s": statistics.median(setup),
            "classes_per_s": len(classes) / sum(best),
            "class_ms_p50": percentile_ms(best, 0.5),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail["passes"] = len(passes)
        detail["class_ms_samples"] = len(best)
        if len(best) >= P90_MIN_CLASSES:
            detail["class_ms_p90"] = percentile_ms(best, 0.9)
        units = END_TO_END_UNITS
    detail["failed_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"detail": detail, "result": result}


def warm_geometries(seed: int) -> None:
    for prime in oracle.PRIMES:
        for s in workloads.battery_seeds(seed):
            oracle.get_geometry(prime, s)


def traced_run(name, classes, fn, seed, reference, detail) -> tuple[dict, int, int]:
    """Each class untraced, then traced; per-layer metrics and overhead.

    Running the two back to back puts both in the same phase of the host's
    load, so the overhead compares like with like.  Times are plain seconds.
    """
    warm_geometries(seed)
    tracer = spans.Tracer()
    untraced_s = 0.0
    failed = 0
    for i, (c, expected) in enumerate(zip(classes, reference)):
        seconds, bad = run_class(fn, c, seed, expected)
        untraced_s += seconds
        failed += bad
        tracer.class_id = i
        restore = tracer.install()
        try:
            span = tracer.open(spans.CLASS)
            _, bad = run_class(fn, c, seed, expected)
            tracer.close(span)
        finally:
            restore()
        failed += bad
    metrics = tracer.metrics()
    metrics["trace.untraced_classes_per_s"] = len(classes) / untraced_s
    metrics["trace.traced_classes_per_s"] = len(classes) / metrics["trace.wall_s"]
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced_s - 1

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_file = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl.gz")
    tracer.write(spans_file)
    detail["passes"] = 2
    detail["class_ms_samples"] = len(classes)
    detail["spans_file"] = os.path.relpath(spans_file, ROOT)
    detail["unlisted_counters"] = tracer.unlisted_counters()
    return metrics, 2 * len(classes), failed


def summary_lines(out: dict) -> list[str]:
    """Every metric by name, value and unit, for people reading the run."""
    d, r = out["detail"], out["result"]
    lines = [f"{d['workload']} (seed {d['seed']}, trace {d['trace']}, "
             f"{d['passes']} pass(es), {d['class_ms_samples']} classes per measurement)"]
    for key, m in r["metrics"].items():
        lines.append(f"  {key:48s} {m['value']:14.6g} {m['unit']}")
    if "class_ms_p90" in d:
        lines.append(f"  {'class_ms_p90':48s} {d['class_ms_p90']:14.6g} ms "
                     f"(n={d['class_ms_samples']})")
    elif not d["trace"]:
        lines.append(f"  {'class_ms_p90':48s} {'not reported':>14s} "
                     f"(n={d['class_ms_samples']} < {P90_MIN_CLASSES})")
    lines.append(f"  {'failed_frac':48s} {d['failed_frac']:14.6g} ratio "
                 f"({r['failed']} of {r['attempted']})")
    return lines
