#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and report the
spread of every end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workload serve-read ...] [--first-seed 1]

For each metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), and the spread: the distance
between the quartiles as a share of the median. A spread is flagged when
it exceeds a third of the metric's bound (`setup_s` is exempt from the
spread rule, as in the acceptance check). Raw results are appended as
JSON lines to perfbench/out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "steady.jsonl"), "a")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- over a third of the bound"
                steady = False
            print(f"  {name:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {bounds[name]:>6}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
