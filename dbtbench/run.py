#!/usr/bin/env python3
"""End-to-end DBT benchmark: build, run one workload, print its result.

Builds the benchmark package (this directory, which compiles the risotto
libraries from ../src) into .bench_build/ at the repo root, then runs one
workload and prints its result. The last stdout line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0 and
every per_layer metric with --trace 1.

Usage (from the repo root):
    python3 dbtbench/run.py --workload suite_run --seed 1 --seconds 10 --trace 0
    python3 dbtbench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dbtbench")
WORK = os.path.join(ROOT, ".bench_build", "work")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target):
    """Configure (once) and build @target; build output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(8, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    target], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    """Metric names the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        binary = build("dbtbench_selftest" if args.self_test else "dbtbench")
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as e:
        print(f"dbtbench: build failed: {e}", file=sys.stderr)
        return 1

    data = os.path.join(ROOT, "data")
    if args.self_test:
        return subprocess.run([binary, data], timeout=RUN_TIMEOUT_S).returncode

    if not args.workload:
        parser.error("--workload is required")
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK, "--data-dir", data]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("dbtbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        return proc.returncode or 1

    # Hold the result back unless it carries exactly the declared metrics.
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        print(f"dbtbench: metrics differ from BENCHMARK.json: "
              f"missing {missing}, extra {extra}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
