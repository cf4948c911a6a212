#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--seconds N] [--trace 0|1]

Defaults: every workload in BENCHMARK.json, seeds 1..10, its run_seconds,
untraced. For each workload and metric it prints the median and the
interquartile range as a share of the median (statistics.quantiles with
n=4), next to the metric's bound from BENCHMARK.json. A spread above a
third of its bound is marked with '!'. Runs are sequential, never
concurrent, so they do not disturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", seed, "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            res = json.loads(last)
            if out.returncode != 0 or not res.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({len(args.seeds.split(','))} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = "!" if bound and spread > bound / 3 else " "
            print(f" {flag} {name:34s} median {med:14.6g}  iqr/median {spread:7.4f}"
                  + (f"  bound {bound}" if bound else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
