#!/usr/bin/env python3
"""Small-scale test of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, and `ingest_bg` (built but left out
of BENCHMARK.json as unsteady), through perfbench/run.py at a tiny
input size (--scale 0.05, one second), untraced and traced, and checks that
each run passes its oracle checks and prints every end-to-end (untraced) or
per-layer (traced) metric named in BENCHMARK.json, with its unit. It also
checks that a copy holding only BENCHMARK.json and the benchmark's own files
fails without printing a result. Exits non-zero on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.05"


def run_bench(cwd, workload, trace, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check_result(workload, trace, proc, expected):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError(f"{where}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError(f"{where}: correct={result['correct']} "
                             f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{where}: attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        missing = {m["name"] for m in expected} - set(metrics)
        extra = set(metrics) - {m["name"] for m in expected}
        raise AssertionError(f"{where}: missing {sorted(missing)}, "
                             f"extra {sorted(extra)}")
    for m in expected:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            raise AssertionError(f"{where}: {m['name']} unit {got.get('unit')}"
                                 f" != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{where}: {m['name']} value {value}")
        if trace == 0 and value <= 0:
            raise AssertionError(f"{where}: {m['name']} is {value}, not > 0")
    print(f"ok   {where}: attempted={result['attempted']}")


def check_sources_required():
    """A copy without the engine's sources must fail and print no result."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "read", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("bare copy: expected a failure without a result, "
                             f"got code {proc.returncode}")
    print(f"ok   bare copy fails with code {proc.returncode}")


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]] + ["ingest_bg"]
    for workload in workloads:
        for trace, expected in ((0, config["end_to_end"]),
                                (1, config["per_layer"])):
            check_result(workload, trace, run_bench(ROOT, workload, trace),
                         expected)
    check_sources_required()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
