#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs the command in BENCHMARK.json once per seed, then
prints each metric's median and its interquartile range as a share of the
median (quartiles from statistics.quantiles(values, n=4)), next to the
metric's bound. Run from the repository root:

    python3 e2ebench/spread.py --workloads uniform-sync zipf-mixed --seeds 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    failures = []
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", seconds, "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if out.returncode != 0 or result is None or not result["correct"]:
                # A run whose checks failed measures nothing worth keeping.
                failures.append(f"{workload} seed {seed}")
                print(f"{workload} seed {seed} FAILED (exit {out.returncode}):\n"
                      f"{out.stdout}\n{out.stderr}")
                continue
            if result["failed"] > 0:
                failures.append(f"{workload} seed {seed}: {result['failed']} failed operations")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        runs = len(next(iter(values.values()), []))
        if runs < 2:
            print(f"== {workload}: too few passing runs for a spread")
            continue
        print(f"== {workload} ({runs} passing runs of {args.seeds} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name:<34} median {med:<14.6g} spread {spread:.4f}"
                  f"  bound {bound}{flag}  [{' '.join(f'{v:.4g}' for v in vals)}]")
    if failures:
        sys.exit("failed runs or operations:\n  " + "\n  ".join(failures))


if __name__ == "__main__":
    main()
