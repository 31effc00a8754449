#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs one or more workloads once per seed (untraced, run_seconds from
BENCHMARK.json) and prints, per metric, the median and the interquartile
range as a share of the median -- the statistic the bounds in
BENCHMARK.json are judged against.

Usage (from the repo root):
    python3 dbtbench/spread.py --seeds 1-10 suite_run litmus_oracle
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        failed = 0
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().split("\n")[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {len(args.seeds)} seeds, {failed} failed ops")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            if spread > bounds[name]:
                flag, status = "  <-- ABOVE BOUND", 1
            print(f"  {name:26s} median {med:12.5g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.3f}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
    return status


if __name__ == "__main__":
    sys.exit(main())
