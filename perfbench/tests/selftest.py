#!/usr/bin/env python3
"""Self-test of the repo benchmark. From the repo root:

    python3 perfbench/tests/selftest.py

Runs every workload tiny (--tiny, 1 s) through perfbench/run.py and checks:
  * every check passes (correct, no failed operations);
  * an untraced run prints exactly BENCHMARK.json's end_to_end metrics and a
    traced run exactly its per_layer metrics, each with its declared unit;
  * another seed changes the inputs (the instance digests) but not the set
    of metrics;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, trace, cwd=ROOT, extra=("--tiny",)):
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def result_of(done, label):
    check(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: not correct: {result}")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    digests = [line for line in lines if line.startswith("digest ")]
    check(digests, f"{label}: no digest lines")
    return result, digests


def check_metrics(result, declared, label, positive):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    check(got == want, f"{label}: metrics/units differ from BENCHMARK.json: "
                       f"{sorted(set(got) ^ set(want))}")
    for name, entry in result["metrics"].items():
        check(isinstance(entry["value"], (int, float)), f"{label}: {name} not a number")
        if positive:
            check(entry["value"] > 0, f"{label}: {name} = {entry['value']}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain, digests = result_of(run(workload, 1, 0), f"{workload} seed 1")
        check_metrics(plain, SPEC["end_to_end"], f"{workload} seed 1", positive=True)
        other, other_digests = result_of(run(workload, 2, 0), f"{workload} seed 2")
        check(set(other["metrics"]) == set(plain["metrics"]),
              f"{workload}: metric set depends on the seed")
        check([d.split()[-1] for d in digests] != [d.split()[-1] for d in other_digests],
              f"{workload}: seed 2 produced the same instances as seed 1")
        traced, _ = result_of(run(workload, 1, 1), f"{workload} traced")
        check_metrics(traced, SPEC["per_layer"], f"{workload} traced", positive=False)
        print(f"ok {workload}")

    # Outside a checkout the benchmark must refuse, not measure.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    done = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare, extra=())
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "bare directory: exit 0")
    check(not done.stdout.strip(), f"bare directory printed: {done.stdout!r}")
    print("ok bare directory refused")
    print("selftest passed")


if __name__ == "__main__":
    main()
