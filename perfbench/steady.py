#!/usr/bin/env python3
"""Steadiness check: run every workload N times with distinct seeds and print,
per end-to-end metric, the median, the quartiles and the spread (q3 - q1) as a
share of the median and of the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Every run lasts the benchmark's run_seconds. Quartiles are
statistics.quantiles(values, n=4), as the acceptance check computes them. A
spread above a third of its bound is flagged; setup_s is exempt from the
spread rule (only its median is compared between commits).
Any workload name run.py accepts may be listed, including na5_faults, which
is not in BENCHMARK.json (see perfbench/README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, bench["run_seconds"])
            results.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, "
              f"{sum(r['correct'] for r in results)} correct, "
              f"failed {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'/bound':>7}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) > 1:
                q1, med, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
            else:
                q1 = med = q3 = values[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            share = spread / bound if bound else float("nan")
            flag = ""
            if bound and name != "setup_s" and share > 1 / 3:
                flag = "  <-- above a third of its bound"
            print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{share:7.3f} {unit}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
