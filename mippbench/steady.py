#!/usr/bin/env python3
"""Steadiness check for the mippbench benchmark.

Runs each workload several times, each with another seed, and prints for
every end-to-end metric the median, the quartiles and the spread (Q3 - Q1)
as a share of the median, beside the bound BENCHMARK.json gives it. It also
prints each run's failed share, which must be identical across runs. The
bounds in BENCHMARK.json are set from this output: a metric is steady when
its spread stays under a third of its bound.

Usage, from the root of a checkout:

    python3 mippbench/steady.py [--runs 10] [--first-seed 1] [workload ...]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(bench["command"], workload, seed, bench["run_seconds"])
            results.append(res)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {values}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: failed share per run: {', '.join(f'{s:.6f}' for s in shares)}"
              f" ({'identical' if len(shares) == 1 else 'DIFFERS'}),"
              f" all correct: {all(r['correct'] for r in results)}")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(bounds):
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = "steady" if spread < bounds[name] / 3 else "NOT STEADY"
            if name == "setup_s":
                steady = ""
            print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
                  f"{bounds[name]:>6} {steady}")
        print(flush=True)


if __name__ == "__main__":
    main()
