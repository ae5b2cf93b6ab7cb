#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark in two source trees.

    python3 tools/ab_pairs.py PARENT CHANGE --workload ship --pairs 10 \
        --seconds 50

PARENT and CHANGE are two checkouts (the parent, say, as a `git
worktree`).  Pair i runs perfbench/run.py with seed SEED + i in both
trees, one fresh process each: the parent first on odd seeds, the change
first on even ones.  Per end-to-end metric it prints the median and the
quartiles of each side, the median gap, in how many pairs the change
was better (ties count for neither), and a verdict against the metric's
bound in BENCHMARK.json, a fraction of the parent's median:

    past bound   the change's median is worse by more than the bound;
    unresolved   the parent's spread (its interquartile range) is
                 not 0 and at least the gap, or is wider than the
                 bound, unless every change run beats every parent run;
    ok           otherwise.

It exits 1 when any metric is past its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed, seconds, smoke):
    """The metric values of one benchmark run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd + ["--smoke"] * smoke, cwd=tree, check=True,
                         capture_output=True, text=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(parent, change, metrics):
    """Per metric: (parent quartiles, change quartiles, wins, verdict)
    over the paired runs; `metrics` maps a metric to its direction,
    "higher" or "lower", and its bound."""
    out = {}
    for name, (direction, bound) in metrics.items():
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        gap, spread = qb[1] - qa[1], qa[2] - qa[0]
        allowed = bound * abs(qa[1])
        if sign * gap < 0 and abs(gap) > allowed:
            verdict = "past bound"
        elif (0 < spread >= abs(gap) or spread > allowed) \
                and not all(sign * (y - x) > 0 for x in a for y in b):
            verdict = "unresolved"
        else:
            verdict = "ok"
        out[name] = (qa, qb, wins, verdict)
    return out


def report(rows, pairs):
    lines = ["%-18s %28s %28s %8s %6s  %s" % (
        "metric", "parent q1/med/q3", "change q1/med/q3", "gap", "wins",
        "verdict")]
    for name, (qa, qb, wins, verdict) in rows.items():
        gap = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        lines.append("%-18s %28s %28s %+7.1f%% %3d/%-2d  %s" % (
            name, "/".join("%.4g" % q for q in qa),
            "/".join("%.4g" % q for q in qb), 100 * gap, wins, pairs,
            verdict))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair (default 1)")
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the script's own test")
    ap.add_argument("--json", type=Path,
                    help="also write every run's metrics to this file")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"])
               for m in spec["end_to_end"]}
    trees = (args.parent, args.change)
    runs = ([], [])                 # the parent's, the change's
    for seed in range(args.seed, args.seed + args.pairs):
        for side in ((0, 1) if seed % 2 else (1, 0)):
            runs[side].append(run_once(trees[side], args.workload, seed,
                                       args.seconds, args.smoke))
        print("pair seed %d done" % seed, file=sys.stderr)
    rows = summary(*runs, metrics)
    print(report(rows, args.pairs))
    if args.json:
        args.json.write_text(json.dumps({"parent": runs[0],
                                         "change": runs[1]}))
    return int(any(row[3] == "past bound" for row in rows.values()))


if __name__ == "__main__":
    sys.exit(main())
