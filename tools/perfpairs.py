#!/usr/bin/env python3
"""Alternating A/B runs of the spec-to-verdict benchmark against a parent revision.

Run from the root of a checkout:

    python3 tools/perfpairs.py --parent REV --workload NAME \\
        [--pairs 10] [--seconds 40] [--seed N]

Exports REV with `git archive` into a temporary directory and runs each
tree's own perfbench/run.py (the parent's from the export, the change's
from this checkout) on the same workload and seed, pairs in alternating
order: parent first in odd pairs, change first in even ones.  Prints
every run, then for each end-to-end metric BENCHMARK.json declares each
side's median and quartiles, the change's win count, and whether the
acceptance rule holds: the change wins at least 9 of 10 pairs (the same
share of other pair counts) and the medians differ by more than the
parent's interquartile range.  Exits non-zero when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def export(rev, dest):
    """Write the tree of [rev] into [dest] with git archive."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, args):
    """One perfbench run in [tree]; its parsed result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfpairs: run in {tree} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    if args.pairs < 2:
        sys.exit("perfpairs: --pairs must be at least 2")
    metrics = end_to_end_metrics()
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perfpairs-") as parent_tree:
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args)
                runs[side].append(result)
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in metrics)
                print(f"pair {i + 1} {side}: {values} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds} s (parent {args.parent})")
    need = -(-9 * args.pairs // 10)  # ceil(0.9 * pairs)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < q) if lower else (c > q) for q, c in zip(par, chg))
        (p1, pm, p3), (c1, cm, c3) = quartiles(par), quartiles(chg)
        better_median = cm < pm if lower else cm > pm
        holds = wins >= need and better_median and abs(cm - pm) > (p3 - p1)
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              f"parent median {pm:.4g} [q1 {p1:.4g}, q3 {p3:.4g}]  "
              f"change median {cm:.4g} [q1 {c1:.4g}, q3 {c3:.4g}]  "
              f"change {(cm - pm) / pm * 100:+.1f}%  "
              f"wins {wins}/{args.pairs}  "
              f"gain rule {'holds' if holds else 'does not hold'}")
    failed = sum(r["failed"] for side in runs.values() for r in side)
    print(f"failed requests: {failed}")


if __name__ == "__main__":
    main()
