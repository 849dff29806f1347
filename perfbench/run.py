#!/usr/bin/env python3
"""Build and run the benchmark; print its result as the last line.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Builds `perfbench` (a Cargo package of its own that links the
repository's crates by path) in release mode, runs one workload, and
prints the result line with `peak_rss_mb` added: the peak resident set
of the benchmark process, taken by this script from the kernel's
accounting of the finished child. A traced run (`--trace 1`) writes its
spans to `perfbench/out/`.

Exits non-zero without a result line if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-read", "serve-write-view", "paper10-batch", "paper-sim"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the release binary; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates are missing; nothing to build")
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is this process's.
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        # One file per workload, overwritten by the next traced run, so
        # repeated runs do not pile up tens of megabytes each.
        spans = os.path.join(HERE, "out", f"spans-{args.workload}.jsonl")
        cmd += ["--spans", spans]

    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        fail(f"benchmark exited with code {child.returncode}")

    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unreadable result line: {e}")
    if not args.trace:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
