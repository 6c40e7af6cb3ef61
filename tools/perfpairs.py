#!/usr/bin/env python3
"""Alternating A/B runs of the spec-to-verdict benchmark against a parent revision.

Run from the root of a checkout:

    python3 tools/perfpairs.py --parent REV --workload NAME[,NAME...] \\
        [--pairs 10] [--seconds 40] [--seed N]

Exports REV with `git archive` into a temporary directory once and runs
each tree's own perfbench/run.py (the parent's from the export, the
change's from this checkout) on the same workload and seed, pairs in
alternating order: parent first in odd pairs, change first in even
ones.  Several comma-separated workloads run one after another, each
with its own pairs.  Prints every run, then per workload, for each
end-to-end metric BENCHMARK.json declares, each side's median and
quartiles, the change's win count and two verdicts:

- the gain rule, which holds when the change wins at least 9 of 10
  pairs (the same share of other pair counts) and the medians differ by
  more than the parent's interquartile range;
- the no-regression rule against the metric's `bound`: "unresolved"
  when the parent's interquartile range exceeds bound x its median and
  not every change run beats every parent run, else "regressed" when
  the change's median is worse than the parent's by more than bound x
  the parent's median, else "no regression".

Last in each workload's block it prints each side's share of failed
requests.  Exits non-zero when a run fails.
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


def run_once(tree, workload, args):
    """One perfbench run of [workload] in [tree]; its parsed result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfpairs: run in {tree} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload, trees, metrics, args):
    """Run the pairs of [workload] and print its runs and verdicts."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, args)
            runs[side].append(result)
            values = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                for m in metrics)
            print(f"{workload} pair {i + 1} {side}: {values} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds} s (parent {args.parent})")
    need = -(-9 * args.pairs // 10)  # ceil(0.9 * pairs)
    for m in metrics:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < q) if lower else (c > q) for q, c in zip(par, chg))
        (p1, pm, p3), (c1, cm, c3) = quartiles(par), quartiles(chg)
        better_median = cm < pm if lower else cm > pm
        holds = wins >= need and better_median and abs(cm - pm) > (p3 - p1)
        all_better = max(chg) < min(par) if lower else min(chg) > max(par)
        worse_by = (cm - pm) if lower else (pm - cm)
        if p3 - p1 > bound * abs(pm) and not all_better:
            verdict = "unresolved"
        elif worse_by > bound * abs(pm):
            verdict = "regressed"
        else:
            verdict = "no regression"
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              f"parent median {pm:.4g} [q1 {p1:.4g}, q3 {p3:.4g}]  "
              f"change median {cm:.4g} [q1 {c1:.4g}, q3 {c3:.4g}]  "
              f"change {(cm - pm) / pm * 100:+.1f}%  "
              f"wins {wins}/{args.pairs}  "
              f"gain rule {'holds' if holds else 'does not hold'}  "
              f"bound {bound:g}: {verdict}")
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"failed requests, {side}: {failed}/{attempted} "
              f"({failed / attempted:.2%})")
    print(flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True,
                   help="a workload name, or several separated by commas")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    if args.pairs < 2:
        sys.exit("perfpairs: --pairs must be at least 2")
    workloads = args.workload.split(",")
    if "" in workloads:
        sys.exit("perfpairs: --workload has an empty name")
    metrics = end_to_end_metrics()
    with tempfile.TemporaryDirectory(prefix="perfpairs-") as parent_tree:
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in workloads:
            compare(workload, trees, metrics, args)


if __name__ == "__main__":
    main()
