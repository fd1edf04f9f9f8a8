"""Benchmark of the twistconj library on four seeded workloads.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Set-up (importing the library from ./src, building its field tables and
generating every input from the seed) runs several times and reports its
median.  The benchmark then repeats the workload's fixed pass of tasks,
single-threaded, until --seconds have elapsed (and at least three times),
and reports medians over the passes; times are corrected for the host's
speed, see below.  Every task checks its own output; every pass must
produce the same digest.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 the
untraced passes are followed by one pass with tracing wrappers installed
on every layer of the library, and the per-layer metrics of that pass are
printed together with the tracing overhead; the trace is written under
.bench_out/.  The last line of output is always one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = ("rings", "poly", "groups", "autos", "twisted", "linalg", "experiments")
SETUP_REPEATS = 5
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
import layertrace  # noqa: E402
import workloads  # noqa: E402

# percentiles a tail may be reported at, in basis points
TAIL_LADDER_BP = (5000, 7500, 9000, 9500, 9900, 9990, 9999)
TAIL_BEYOND = 10
SMOOTH_HALF = 5


class SetupError(RuntimeError):
    """The library could not be loaded from this checkout."""


# ---------------------------------------------------------------------------
# statistics

def nearest_rank(n, bp):
    """0-based index of the nearest-rank percentile of n sorted values,
    with the percentile given in basis points."""
    return max(-(-bp * n // 10000), 1) - 1


def smoothed_percentile(sorted_values, bp):
    """The mean of the values ranked nearest the nearest-rank percentile,
    SMOOTH_HALF on either side.  Task costs form clusters; where the
    percentile falls in a gap between two, a small change in a few tasks
    then moves the value a little rather than across the gap."""
    k = nearest_rank(len(sorted_values), bp)
    window = sorted_values[max(0, k - SMOOTH_HALF):k + SMOOTH_HALF + 1]
    return sum(window) / len(window)


def tail_bp(n):
    """The highest ladder percentile that leaves at least ten of n samples
    above it, or None when even the median leaves fewer."""
    best = None
    for bp in TAIL_LADDER_BP:
        if n - 1 - nearest_rank(n, bp) >= TAIL_BEYOND:
            best = bp
    return best


def bp_label(bp):
    return f"p{bp / 100:g}"


# ---------------------------------------------------------------------------
# host speed correction
#
# On a shared host the speed of this process swings by up to 1.8x over
# tens of seconds, and process time swings with it.  A fixed pure-Python
# loop that touches no library code runs between tasks every PROBE_EVERY_S;
# each task's time is scaled by PROBE_REFERENCE_S over the loop's local
# duration, so times read as seconds on a host where the loop takes
# PROBE_REFERENCE_S.  A change to the library moves the tasks, not the loop.

PROBE_EVERY_S = 0.1
PROBE_REFERENCE_S = 1.5e-3


def reference_loop():
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def probe():
    """(wall, cpu) seconds of one reference loop."""
    c0, t0 = time.process_time(), time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0, time.process_time() - c0


def probe_median(k=3):
    return statistics.median(probe()[0] for _ in range(k))


def speed_factors(probe_walls):
    """One factor per stretch between consecutive probes.  Each probe is
    first replaced by the median of the five around it, so a single
    interrupted probe does not skew its stretch."""
    n = len(probe_walls)
    smooth = [statistics.median(probe_walls[max(0, i - 2):i + 3]) for i in range(n)]
    return [2 * PROBE_REFERENCE_S / (a + b) for a, b in zip(smooth, smooth[1:])]


# ---------------------------------------------------------------------------
# set-up

def load_library():
    """Import the library afresh from ./src; every module and its caches
    (field tables, polynomial rings) start empty."""
    if not (SRC / "twistconj" / "__init__.py").is_file():
        raise SetupError(f"no twistconj package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "twistconj" or m.startswith("twistconj.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("twistconj")
    if Path(pkg.__file__).resolve().parent != (SRC / "twistconj").resolve():
        raise SetupError(f"twistconj resolved to {pkg.__file__}, outside {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"twistconj.{m}") for m in LAYERS})


def set_up(workload, seed):
    """(median speed-corrected set-up seconds, median raw set-up seconds,
    library, tasks of the last set-up)."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = probe_median()
        t0 = time.perf_counter()
        lib = load_library()
        tasks = workloads.WORKLOADS[workload](lib, seed)
        raw.append(time.perf_counter() - t0)
        times.append(raw[-1] * 2 * PROBE_REFERENCE_S / (before + probe_median()))
    return statistics.median(times), statistics.median(raw), lib, tasks


# ---------------------------------------------------------------------------
# passes

class Pass:
    """One run over every task.  `latencies`, `wall` and `cpu` are speed
    corrected; `raw_wall` is the task time as the clock read it."""

    def __init__(self, tasks):
        digest = hashlib.sha256()
        raw, segment, probes = [], [], []
        probe_cpu = 0.0
        self.failures = []
        next_probe = 0.0
        c0 = time.process_time()
        for label, task in tasks:
            if time.perf_counter() >= next_probe:
                wall, cpu = probe()
                probes.append(wall)
                probe_cpu += cpu
                next_probe = time.perf_counter() + PROBE_EVERY_S
            s0 = time.perf_counter()
            try:
                ok, record = task()
            except Exception as exc:  # a raising task is a failed task; keep going
                ok, record = False, f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(limit=3, file=sys.stderr)
            raw.append(time.perf_counter() - s0)
            segment.append(len(probes) - 1)
            if not ok:
                self.failures.append(f"{label}: {record}")
            digest.update(f"{label}|{record}\n".encode())
        wall, cpu = probe()
        probes.append(wall)
        cpu_used = time.process_time() - c0 - probe_cpu - cpu
        factors = speed_factors(probes)
        self.latencies = [dt * factors[k] for dt, k in zip(raw, segment)]
        self.raw_wall = sum(raw)
        self.wall = sum(self.latencies)
        self.cpu = cpu_used * self.wall / self.raw_wall
        self.digest = digest.hexdigest()


def run_passes(tasks, seconds):
    """Passes until `seconds` have elapsed, and at least MIN_PASSES, so that
    a per-task median drops a pause that hit one pass."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(Pass(tasks))
    return passes


def end_to_end(passes, setup_s, n_tasks):
    """The end-to-end metrics, and the notes printed beside them."""
    bp = tail_bp(n_tasks) or 5000
    wall = statistics.median(p.wall for p in passes)
    # each task's latency is its median over the passes
    latencies = sorted(statistics.median(ts) for ts in zip(*(p.latencies for p in passes)))
    ms = 1000.0
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (n_tasks / wall, "1/s"),
        "task_ms_p50": (smoothed_percentile(latencies, 5000) * ms, "ms"),
        "task_ms_tail": (smoothed_percentile(latencies, bp) * ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"wall_s": f"raw {statistics.median(p.raw_wall for p in passes):.4f} s",
             "task_ms_tail": f"{bp_label(bp)} of n={n_tasks} tasks"}
    return metrics, notes


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine()}
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        setup_s, setup_raw, lib, tasks = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    passes = run_passes(tasks, args.seconds)
    digests = {p.digest for p in passes}
    failures = [f for p in passes for f in p.failures]
    problems = []
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} distinct digests")
    metrics, notes = end_to_end(passes, setup_s, len(tasks))
    notes["setup_s"] = f"raw {setup_raw:.4f} s"
    print(f"passes: {len(passes)} x {len(tasks)} tasks; digest {passes[0].digest}")

    if args.trace:
        tracer = layertrace.Tracer()
        layertrace.install(tracer, lib)
        try:
            traced = Pass(tasks)
        finally:
            tracer.uninstall()
        passes.append(traced)
        failures += traced.failures
        if traced.digest != passes[0].digest:
            problems.append("the traced pass changed the digest")
        missed = [n for n in workloads.EXPECTED_CALLS[args.workload] if not tracer.calls[n]]
        if missed:
            problems.append(f"wrappers recorded no calls: {', '.join(missed)}")
        untraced_wall = metrics["wall_s"][0]
        metrics = layertrace.layer_metrics(tracer, traced.raw_wall)
        metrics["trace.wall_s"] = (traced.wall, "s")
        metrics["trace.overhead_s"] = (traced.wall - untraced_wall, "s")
        notes = {"trace.overhead_s": f"traced {traced.wall:.3f} s - untraced {untraced_wall:.3f} s"}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path, dict(env, digest=traced.digest))
        print(f"trace: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")

    attempted = len(passes) * len(tasks)
    for line in failures:
        print(f"FAIL {line}")
    for line in problems:
        print(f"FAIL {line}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"fail_frac = {len(failures) / attempted:.6g}  ({len(failures)}/{attempted} tasks)")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
