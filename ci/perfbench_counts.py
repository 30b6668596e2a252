#!/usr/bin/env python3
"""Prints the deterministic work counts of every perfbench workload.

Run from anywhere in a checkout:

    python3 ci/perfbench_counts.py > counts.json

For each workload in BENCHMARK.json it runs the traced replay at seed 1
(`perfbench/run.py --seed 1 --seconds 0 --trace 1`) and fails unless the
run is correct and no op failed. It then prints, as sorted JSON keyed by
workload, every per-layer metric whose BENCHMARK.json unit is `count` or
`B`, except `threads`, which follows the host's core count. The replay
already checks that these counts agree at 1 and 2 threads, so they are a
noise-free signal: CI diffs this output against ci/perfbench-counts.json.
Timings are never compared.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNITS = ("count", "B")
SKIP = ("threads",)


def counts(workload, names):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench_counts: {workload}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"perfbench_counts: {workload}: correct={result['correct']} "
                 f"failed={result['failed']}")
    return {name: result["metrics"][name]["value"] for name in names}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer"]
             if m["unit"] in UNITS and m["name"] not in SKIP]
    out = {w["name"]: counts(w["name"], names) for w in spec["workloads"]}
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
