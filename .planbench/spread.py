#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's spread.

For every workload, runs BENCHMARK.json's command once per seed, untraced,
for its run_seconds, and prints for each metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the interquartile distance as a
share of the median, marked "ok" when it is below a third of the metric's
bound and "WIDE" otherwise.

    python3 .planbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            out = subprocess.run(
                spec["command"]
                + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            worst = max(worst, spread / bound)
            mark = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound/3 {bound / 3:.4f}) {mark}")
        sys.stdout.flush()
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
