#!/usr/bin/env python3
"""Builds and runs the repository benchmark (fms_perfbench).

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload search_iid --seed 1 --seconds 35 --trace 0

Workloads: search_iid, search_stale_faulty, retrain_eval. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

The fms library and fms_perfbench are compiled from this checkout's sources
into .bench_build/perfbench (Release; the first run builds, later runs
only check that the build is current). Build output goes to stderr. The
metric names of the result must be the ones BENCHMARK.json lists for the
mode (end_to_end for --trace 0, per_layer for --trace 1); otherwise the
result line is withheld and the run fails.
Checkpoint and journal files go to fresh directories under
.bench_build/tmp, removed when the episode, recovery or run that made them ends.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "tmp"
BINARY = BUILD_DIR / "fms_perfbench"
WORKLOADS = ("search_iid", "search_stale_faulty", "retrain_eval")
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no fms sources next to the benchmark; "
                 "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "fms_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", str(WORK_DIR)]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines))
        sys.exit(done.returncode or 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"]
              for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]
    printed = list(json.loads(lines[-1])["metrics"])
    if sorted(printed) != sorted(listed):
        print("\n".join(lines[:-1]))
        sys.exit("perfbench: printed metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(listed) - set(printed))}, "
                 f"unlisted {sorted(set(printed) - set(listed))}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
