#!/usr/bin/env python3
"""Build and run the Sekitei spec-to-verdict benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune (release profile,
build directory .bench_build, dune cache off), runs it, checks that its
result line has the expected shape and the metric names BENCHMARK.json
declares, and prints that line as the last line of standard output.
Exits non-zero without printing a result when the checkout cannot be
built or the run fails.  README.md in this directory describes the
workloads and metrics.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("cold-fine", "session-churn", "infeasible")
BUILD_TIMEOUT_S = 700
RUN_GRACE_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Run [cmd] in its own process group; on timeout kill the whole
    group (dune's compiler children too) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        code, _ = run(cmd, BUILD_TIMEOUT_S, cwd=ROOT, env=env,
                      stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if code != 0:
        fail(f"build failed (exit {code})")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"unreadable result line: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no request was attempted")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not math.isfinite(m["value"]):
            fail(f"malformed metric {name}: {m}")
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        fail(f"metrics {sorted(result['metrics'])} differ from "
             f"BENCHMARK.json's {sorted(want)}")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        code, out = run(cmd, args.seconds + RUN_GRACE_S, cwd=ROOT,
                        stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if code != 0:
        fail(f"benchmark exited with code {code}")
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = check_result(lines[-1], args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
