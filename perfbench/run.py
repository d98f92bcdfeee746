#!/usr/bin/env python3
"""Serving-path benchmark entry point.

Builds the benchmark (this checkout's compaqt sources plus main.cc and
adapter.cc in this directory) with CMake into .bench_build, runs one workload and
prints the benchmark's result line last on stdout, after checking that
it carries exactly the metrics BENCHMARK.json declares.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qec_cycle --seed 1 \
        --seconds 20 --trace 0

Exits non-zero, printing no result, when the checkout holds no
compaqt sources, the build fails, or the result line is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "compaqt.hh")):
        fail("no compaqt sources under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}, \
        {w["name"] for w in spec["workloads"]}


def check(result, metrics):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a non-negative integer")
    got = result["metrics"]
    if set(got) != set(metrics):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(metrics) - set(got)),
              sorted(set(got) - set(metrics))))
    for name, unit in metrics.items():
        if got[name].get("unit") != unit:
            fail("metric %s has unit %r, expected %r" %
                 (name, got[name].get("unit"), unit))
        if not isinstance(got[name].get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload %r" % args.workload)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail("last line is not JSON: %s" % e)
    check(result, metrics)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
