#!/usr/bin/env python3
"""Builds and runs the lsmstats benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest|ingest_bg|read|churn \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from this checkout's sources into
`.bench_build/perfbench` (CMake, RelWithDebInfo), runs it with its data
directory under `.bench_build/`, and relays its output. The last line of
standard output is the benchmark's JSON result; build logs go to standard
error. Exits non-zero without printing a result if the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("ingest", "ingest_bg", "read", "churn")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    source = ROOT / "perfbench"
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return BUILD_DIR / "perfbench"


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="1",
                        help="input-size multiplier (self-test only)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    trace_dir = BUILD_ROOT / "perfbench-trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--scale", args.scale,
        "--data-dir", str(BUILD_ROOT / "perfbench-data"),
        "--trace-out", str(trace_dir / f"{args.workload}.csv"),
        "--git-sha", git_sha(),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with code {run.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        print("perfbench: last line is not a JSON result", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
