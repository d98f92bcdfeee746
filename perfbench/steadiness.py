#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how steady each metric is.

For every workload, runs `perfbench/run.py` once per seed (one run at
a time) and prints, per metric, the median, the first and third
quartiles as `statistics.quantiles(values, n=4)` gives them, and the
spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/steadiness.py --seeds 1-10 --trace 0
    python3 perfbench/steadiness.py --workloads qec_cycle --seeds 1-5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw = {}
    for wl in args.workloads.split(","):
        values = raw.setdefault(wl, {})
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit("%s seed %d: run.py exited %d" %
                         (wl, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (wl, seed, result["correct"], result["failed"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])

    for wl, values in raw.items():
        n = len(next(iter(values.values())))
        print("\n### %s (%d seeds, --seconds %d, --trace %d)\n" %
              (wl, n, args.seconds, args.trace))
        print("| metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
        print("|---|---|---|---|---|---|")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("| %s | %.6g | %.6g | %.6g | %.4f | %s |" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
