#!/usr/bin/env python3
"""Compares two builds of the benchmark in alternating pairs of runs.

Usage, from the root of a checkout:

    python3 tools/perfbench_pairs.py --parent A --change B \
        --workload churn --seeds 1-10 --seconds 20 [--trace 0|1] \
        [--pairs N] [--json OUT]

`A` and `B` are each either a built `perfbench` binary or a checkout; a
checkout is run through its own `perfbench/run.py`, which builds it first.
Pair i runs both sides on the i-th seed of `--seeds` (a list such as
`1,4,7` or a range such as `1-10`, cycled when `--pairs` is larger), the
parent first in even pairs and the change first in odd ones, so a drift of
the host over time falls on both sides alike.

For every metric `BENCHMARK.json` lists (the end-to-end ones, or with
`--trace 1` the per-layer ones) it prints each side's median and quartiles,
the change/parent ratio of the medians, and in how many pairs the change was
better. `gain` marks a metric where the change won at least nine pairs in
ten and the medians differ by more than the parent's interquartile range;
`over bound` marks an end-to-end median worse than its bound allows.
`unresolved` marks an end-to-end metric whose parent runs spread wider than
its bound (interquartile range over median), unless every change run beats
every parent run: at that spread a median within the bound does not show
the metric unchanged. Runs that are not `correct` or that report failed
operations are listed at the end. `--json` also writes the summary and every run's result. Nothing under `perfbench/` or
`BENCHMARK.json` is changed. A binary runs with its data directory under
this checkout's `.bench_build/perfbench-pairs/` (the filesystem `run.py`
uses), which is removed afterwards.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text):
    """'1,4,7' or '1-10' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds")
    return seeds


def run_side(side, args, seed, data_dir):
    """Runs one side once; returns its JSON result."""
    common = ["--workload", args.workload, "--seed", str(seed),
              "--seconds", str(args.seconds), "--trace", args.trace]
    if side.is_dir():
        command = [sys.executable, str(side / "perfbench" / "run.py")] + common
        cwd = side
    else:
        command = [str(side)] + common + ["--data-dir", str(data_dir)]
        cwd = data_dir.parent
    run = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, cwd=cwd, check=False)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stderr)
        raise RuntimeError(f"{side} seed {seed}: exit {run.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3); q1 = q3 = median for a single value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metrics, pairs):
    """One row per metric both sides reported in every pair."""
    rows = []
    for spec in metrics:
        name = spec["name"]
        try:
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
        except KeyError:
            continue
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        ratio = cmed / pmed if pmed else float("nan")
        better = cmed < pmed if lower else cmed > pmed
        notes = []
        if better and wins * 10 >= 9 * len(pairs) and \
                abs(cmed - pmed) > pq3 - pq1:
            notes.append("gain")
        bound = spec.get("bound")
        if bound is not None and pmed:
            worse_by = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
            if worse_by > bound:
                notes.append("over bound")
            beats_all = (max(change) < min(parent) if lower
                         else min(change) > max(parent))
            if (pq3 - pq1) / abs(pmed) > bound and not beats_all:
                notes.append("unresolved")
        rows.append((name, (pq1, pmed, pq3), (cq1, cmed, cq3), ratio, wins,
                     " ".join(notes)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--pairs", type=int,
                        help="number of pairs (default: one per seed)")
    parser.add_argument("--json", type=Path, help="write every run here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    count = args.pairs or len(args.seeds)

    pairs = []
    data_root = ROOT / ".bench_build" / "perfbench-pairs"
    data_root.mkdir(parents=True, exist_ok=True)
    try:
        for i in range(count):
            seed = args.seeds[i % len(args.seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed}
            for name in order:
                data_dir = data_root / name
                pair[name] = run_side(sides[name], args, seed, data_dir)
                shutil.rmtree(data_dir, ignore_errors=True)
            pairs.append(pair)
            print(f"pair {i + 1}/{count} seed {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(data_root, ignore_errors=True)

    rows = summarize(metrics, pairs)
    if args.json is not None:
        summary = {name: {"parent_q1_med_q3": parent,
                          "change_q1_med_q3": change, "ratio": ratio,
                          "wins": f"{wins}/{count}", "notes": notes}
                   for name, parent, change, ratio, wins, notes in rows}
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "trace": int(args.trace), "parent": str(args.parent),
             "change": str(args.change), "summary": summary,
             "pairs": pairs}, indent=1) + "\n")

    print(f"{args.workload}: {count} pairs, {args.seconds} s, "
          f"seeds {','.join(str(p['seed']) for p in pairs)}")
    print(f"{'metric':<34}{'parent median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'ratio':>8}{'wins':>7}  notes")
    for name, (pq1, pmed, pq3), (cq1, cmed, cq3), ratio, wins, notes in rows:
        print(f"{name:<34}{f'{pmed:.4g} [{pq1:.4g}, {pq3:.4g}]':>34}"
              f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':>34}{ratio:>8.3f}"
              f"{f'{wins}/{count}':>7}  {notes}")
    bad = [(i + 1, name) for i, p in enumerate(pairs)
           for name in ("parent", "change")
           if not p[name].get("correct") or p[name].get("failed")]
    for number, name in bad:
        print(f"pair {number}: {name} run not correct or had failed operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
