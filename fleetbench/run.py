#!/usr/bin/env python3
"""Fleet-audit benchmark: build the fleetbench program from source, run one
workload, check its output and print the result.

    python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny] [--pin-incident <hex>] \
        [--pin-action <hex>]

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/fleetbench (default .bench_build/fleetbench), persisted
fleet state to .bench_state/ and traced spans to .bench_spans/, all inside
the checkout.  An untraced run is split over CHILDREN processes run one
after another, and each metric is the median of theirs: how fast a
process runs varies from process to process on a shared host.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; build logs and progress go to stderr.  Any failed
build, output check or metric-name check exits non-zero without printing
a result.  README.md in this directory describes the workloads and
metrics.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Processes an untraced run is split over.
CHILDREN = 3
# Metrics every process of a run must report identically (they are
# exact for a seed).
EXACT = ("tpr", "tnr", "detect_quanta_mean")
# A run is cut off here, well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def fail(message):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full "
             "checkout of the repository")
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "fleetbench")
    os.makedirs(build_dir, exist_ok=True)
    # Concurrent runs in one checkout build once, one at a time.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "fleetbench", "-j", str(BUILD_JOBS)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "fleetbench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_child(cmd, deadline):
    """One benchmark process; returns its result object."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"fleetbench exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("fleetbench printed no result")
    return json.loads(lines[-1])


def combine(results):
    """Median of every metric over the processes of one run."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in EXACT and len(set(values)) != 1:
            fail(f"{name} differs between processes: {values}")
        metrics[name] = {"value": statistics.median_low(values),
                         "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--pin-incident")
    parser.add_argument("--pin-action")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    start = time.monotonic()
    children = 1 if args.trace else CHILDREN
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / children), "--trace",
           str(args.trace), "--size", args.size]
    if args.pin_incident:
        cmd += ["--pin-incident", args.pin_incident]
    if args.pin_action:
        cmd += ["--pin-action", args.pin_action]
    if args.trace:
        cmd += ["--spans", os.path.join(
            ".bench_spans", f"{args.workload}-seed{args.seed}.tsv")]
    result = combine([
        run_child(cmd, RUN_TIMEOUT_S - (time.monotonic() - start))
        for _ in range(children)])

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, unexpected "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(n for n in want if n in got and got[n] != want[n])}")
    if not result["correct"] or result["attempted"] < 1:
        fail("fleetbench reported incorrect output")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
