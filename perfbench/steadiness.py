#!/usr/bin/env python3
"""Steadiness report: is each end-to-end metric repeatable within its bound?

Runs every workload (or those named) several times, each run with its own
seed and in its own process, through perfbench/run.py, then prints for each
metric the median, the interquartile spread as a share of the median, that
spread as a share of the metric's bound in BENCHMARK.json, and the max/min
range as a share of the bound. A spread below a third of the bound leaves
room for the comparison of two sets of runs.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--seconds S] [--workload NAME ...]
                                    [--json out.json]

Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"run failed ({workload}, seed {seed}):\n{res.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()
    if args.runs < 4:
        sys.exit("need at least 4 runs for quartiles")

    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for w in names:
        raw[w] = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = run_once(w, seed, args.seconds)
            if not out["correct"]:
                sys.exit(f"{w} seed {seed}: output incorrect")
            for m, v in out["metrics"].items():
                raw[w].setdefault(m, []).append(v["value"])
            print(f"{w} seed {seed} done", file=sys.stderr)

    print(f"{'workload':16} {'metric':20} {'median':>12} {'iqr/med':>8} "
          f"{'iqr/bound':>9} {'range/bound':>11}")
    worst = 0.0
    for w, metrics in raw.items():
        for m, vals in sorted(metrics.items()):
            med, q1, q3 = spread(vals)
            bound = bounds.get(m)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            ib = iqr / bound if bound else float("nan")
            rb = rng / bound if bound else float("nan")
            if bound and m != "setup_s":
                worst = max(worst, ib)
            print(f"{w:16} {m:20} {med:12.6g} {iqr:8.2%} {ib:9.2f} {rb:11.2f}")
    print(f"worst iqr/bound (setup_s excluded): {worst:.2f} "
          f"(target below 0.33)")
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
