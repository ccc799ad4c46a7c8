"""Steadiness check: run each workload several times, one seed each.

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--first-seed 1]

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, and the metric's bound from BENCHMARK.json, and
flags spreads above the bound and above a third of it.  It also checks
that every run was correct and that the failed share is the same in
every run.  Use it to set bounds and to re-measure the baseline after
the benchmark changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=600)
    lines = completed.stdout.decode().strip().splitlines()
    if completed.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {},
                "exit": completed.returncode}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        workload["name"] for workload in config["workloads"]))
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"]
              for metric in config["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        if not all(run["correct"] for run in runs):
            print(f"{workload}: a run was incorrect or invalid")
            steady = False
            continue
        shares = {run["failed"] / run["attempted"] for run in runs}
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: "
                  f"{sorted(shares)}")
            steady = False
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                steady = False
            elif spread > bound / 3:
                flag = "  over a third"
            print(f"  {name:24} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {bound:6.2f}{flag}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
