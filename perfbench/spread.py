#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs the benchmark --runs times per workload, each with the next seed, and
prints for every end-to-end metric its median and its quartile spread (the
distance between the first and third quartile as a share of the median)
next to the metric's bound from BENCHMARK.json. Raw results are appended to
.bench_out/spread.jsonl so two sets can be compared afterwards.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: BENCHMARK.json's)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_out", "spread.jsonl")

    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(ROOT, *spec["command"][1:]), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d failed (exit %d)" % (w, seed, proc.returncode))
                return 1
            with open(log_path, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(w)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            spread = stats.quartile_spread(v)
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("  %-18s median %12.5g  spread %6.3f  bound %.2f  %s" % (
                m["name"], statistics.median(v), spread, m["bound"],
                "ok" if spread <= m["bound"] / 3 else
                ("within bound" if spread <= m["bound"] else "OVER BOUND")))
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
