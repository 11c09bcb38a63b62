#!/usr/bin/env python3
"""A/A validation of the benchmark, the way the driver does it.

Runs the command from BENCHMARK.json --runs times per workload, each time
with another --seed, and prints for every end-to-end metric the spread
(distance between the first and third quartile as a share of the median)
against the metric's bound. With --sets 2 it does so twice and also
compares the two medians. Exits non-zero if a spread (setup_s excepted) or
a median shift exceeds its bound.

    python3 benchmark/aa.py [--sets 2] [--runs 10] [--workload W] [--seed0 1]
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bad = 0
    for workload in names:
        medians = []
        for s in range(args.sets):
            seeds = range(args.seed0 + s * args.runs, args.seed0 + (s + 1) * args.runs)
            runs = [run(spec["command"], workload, seed, spec["run_seconds"]) for seed in seeds]
            medians.append({})
            for m in spec["end_to_end"]:
                vals = [r[m["name"]] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians[s][m["name"]] = med
                verdict = "PASS" if spread <= m["bound"] or m["name"] == "setup_s" else "UNRESOLVED"
                line = f"{workload:24} set {s + 1} {m['name']:14} median {med:14.4f} {m['unit']:6} spread {spread:7.2%} bound {m['bound']:4.0%} {verdict}"
                if s > 0:
                    first = medians[0][m["name"]]
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    shift_ok = worse <= m["bound"]
                    line += f"  vs set 1 {worse:+7.2%} {'PASS' if shift_ok else 'UNRESOLVED'}"
                    bad += not shift_ok
                bad += verdict != "PASS"
                print(line, flush=True)
                if args.values:
                    print("    " + " ".join(f"{v:.4g}" for v in vals), flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
