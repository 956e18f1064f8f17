#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the simulator
from ../src) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs one workload. The last line of stdout is the result JSON:
{"correct", "attempted", "failed", "metrics"}. Build logs go to stderr.
Traced runs (--trace 1) also write spans, obs counters and a summary under
<build dir>/out/<workload>-seed<n>/. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vdi_src", "pod_incast", "pod_incast_lanes4", "tpm_train")
# A run must end within 180 s, and the first run in a checkout, which also
# builds, within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
BUILD_JOBS = min(4, os.cpu_count() or 1)
# The simulator sources and the manifest the benchmark drives.
REQUIRED = ("src/core/experiment.hpp", "examples/scenarios/fig9.json",
            "perfbench/manifests/pod_incast_deg16.json")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once, then builds incrementally; a lock serialises builds."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", str(BUILD_JOBS)])
        started = time.monotonic()
        for step in steps:
            remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr, timeout=max(remaining, 1))
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="shrunk inputs, for the self-test")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a repo checkout, missing: " + ", ".join(missing))

    out_dir = build_dir()
    binary = build(out_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--root", ROOT]
    if args.trace == "1":
        trace_dir = os.path.join(out_dir, "out", f"{args.workload}-seed{args.seed}")
        command += ["--out", trace_dir]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode}")

    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
