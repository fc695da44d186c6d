#!/usr/bin/env python3
"""Tests of the fleet-audit benchmark, run from the root of a checkout:

    python3 fleetbench/test_fleetbench.py

Each test drives fleetbench/run.py on the tiny size of a workload (a
few seconds each after the first build).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("contention-1shard", "oscillation-2shard",
             "crash-resume-1shard")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace=0, extra=(), cwd=ROOT, seed=3, size="tiny"):
    cmd = [sys.executable, os.path.join(cwd, "fleetbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", size, *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class FleetBenchTest(unittest.TestCase):
    def test_every_workload_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run_bench(workload))
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for metric in SPEC["end_to_end"]:
                    got = result["metrics"][metric["name"]]
                    self.assertEqual(got["unit"], metric["unit"])
                    self.assertGreater(got["value"], 0, metric["name"])

    def test_wrong_pin_fails(self):
        for flag in ("--pin-incident", "--pin-action"):
            with self.subTest(flag=flag):
                done = run_bench("crash-resume-1shard", extra=(flag, "1"))
                self.assertNotEqual(done.returncode, 0)
                self.assertEqual(done.stdout.strip(), "")
                self.assertIn("CHECK FAILED", done.stderr)

    def test_right_pin_passes(self):
        # The tiny fleet's own hashes, read back from an unpinned run.
        done = run_bench("crash-resume-1shard")
        line = [l for l in done.stderr.splitlines() if " hash=" in l][0]
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        result_of(run_bench("crash-resume-1shard", extra=(
            "--pin-incident", fields["hash"],
            "--pin-action", fields["actions"])))

    def test_default_seed_matches_pins(self):
        # Full size at the default seed checks the pinned hashes.
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                result_of(run_bench(workload, seed=1, size="full"))

    def test_traced_mode_reproduces_untraced_hashes(self):
        # fleetbench exits non-zero when a traced stream or a tenant's
        # traced alarms differ from the untraced ones.
        layer_times = [m["name"] for m in SPEC["per_layer"]
                       if m["unit"] == "s" and not
                       m["name"].startswith("trace.")]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = result_of(run_bench(workload, trace=1))["metrics"]
                for metric in SPEC["per_layer"]:
                    self.assertEqual(metrics[metric["name"]]["unit"],
                                     metric["unit"])
                total = sum(metrics[n]["value"] for n in layer_times)
                total += metrics["trace.unattributed_s"]["value"]
                self.assertAlmostEqual(total,
                                       metrics["trace.core_s"]["value"],
                                       places=6)
                self.assertEqual(metrics["scenario.rerun_ratio"]["value"],
                                 1.5 if workload.startswith("crash")
                                 else 1.0)

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "fleetbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("contention-1shard", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
