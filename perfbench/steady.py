#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Runs the benchmark once per seed on each workload, untraced, and reports
for every end-to-end metric the median and the spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median. Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --out perfbench/steadiness.json

With --out, the figures are written as JSON; the file records the seeds,
the per-run values and each metric's spread next to its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    report = {"runs": args.runs, "seconds": bench["run_seconds"], "seeds": seeds,
              "cpus": os.cpu_count(), "workloads": {}}
    worst = 0.0
    for w in names:
        values = {}
        for s in seeds:
            for k, v in run_once(w, s, bench["run_seconds"]).items():
                values.setdefault(k, []).append(v)
        rows = {}
        for k, vs in values.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med if med else float("inf")
            rows[k] = {"median": med, "spread": spread, "bound": bounds[k], "values": vs}
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print(f"{w:11s} {k:16s} median {med:12.5g} spread {spread:7.4f} bound {bounds[k]}", flush=True)
        report["workloads"][w] = rows
    report["worst_spread_over_bound"] = worst
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
