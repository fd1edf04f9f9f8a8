"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads catalog,oracle --seeds 1-10 \
        --seconds 20 [--trace 0] [--out perfbench/baseline.json]

Runs are sequential, one process at a time.  For every metric the median
and the quartile spread (Q3 - Q1) / median over the seeds are printed, with
Q1 and Q3 from statistics.quantiles(values, n=4); --out writes every run's
result and environment line, and the summary, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next((ln[len("env: "):] for ln in lines if ln.startswith("env: ")), "")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return {"seed": seed, "env": env, "result": result}


def summarise(runs):
    out = {}
    names = runs[0]["result"]["metrics"]
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["result"]["metrics"][name]["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds_from(args.seeds)]
        summary = summarise(runs)
        report[workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            print(f"{workload:8s} {name:30s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
