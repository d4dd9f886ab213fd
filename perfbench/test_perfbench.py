#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py's build step, then runs the binary
with short runs: a seed gives the same digests and counts every time, a
deliberately mismatched stats dump is counted as a failed operation, and
every metric BENCHMARK.json and the layer map name is printed.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = run.ROOT
BINARY = None


def bench(workload, seed, trace, *extra):
    """Run the binary for one second; returns (digests, result)."""
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)] + list(extra),
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise AssertionError("perfbench exited %d:\n%s"
                             % (out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    digests = {}
    for line in lines[:-1]:
        if line.startswith("digest "):
            _, label, value = line.split()
            digests[label] = value
    return digests, json.loads(lines[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


class TracedRuns(unittest.TestCase):
    """One traced run profiles every workload, so two of them cover
    the digests and counts of all four."""

    @classmethod
    def setUpClass(cls):
        cls.first = bench("sweep", 7, 1)
        cls.second = bench("sweep", 7, 1)

    def test_same_seed_same_digests_and_counts(self):
        digests, result = self.first
        again_digests, again = self.second
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        # Probes, then every workload's dumps.
        for prefix in ("hw.", "sweep.", "scenario.", "farm.", "mc."):
            self.assertTrue(any(d.startswith(prefix) for d in digests),
                            prefix)
        self.assertEqual(digests, again_digests)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        self.assertEqual(sorted(counts(result)),
                         sorted(m["name"] for m in per_layer
                                if m["unit"] == "count"))
        self.assertEqual(counts(result), counts(again))

    def test_every_layer_map_metric_is_printed(self):
        with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
            layer_map = json.load(f)["layer_map"]
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        printed = self.first[1]["metrics"]
        named = [m for entry in layer_map for m in entry["metrics"]]
        self.assertEqual(sorted(named), sorted(m["name"] for m in per_layer))
        self.assertEqual(sorted(printed), sorted(named))
        for metric in per_layer:
            self.assertEqual(printed[metric["name"]]["unit"], metric["unit"],
                             metric["name"])


class UntracedRuns(unittest.TestCase):
    def test_end_to_end_metrics_are_printed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in run.WORKLOADS:
            _, result = bench(workload, 3, 0)
            self.assertTrue(result["correct"], workload)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(
                sorted(result["metrics"]),
                sorted(m["name"] for m in spec["end_to_end"]))
            for metric in spec["end_to_end"]:
                printed = result["metrics"][metric["name"]]
                self.assertEqual(printed["unit"], metric["unit"])
                self.assertGreater(printed["value"], 0, metric["name"])

    def test_mismatched_dump_is_a_failed_operation(self):
        _, clean = bench("sweep", 5, 0)
        _, corrupted = bench("sweep", 5, 0, "--corrupt-dump", "1")
        self.assertEqual(clean["failed"], 0)
        self.assertEqual(corrupted["failed"], 1)
        self.assertFalse(corrupted["correct"])

    def test_seed_changes_the_inputs(self):
        first, _ = bench("mc-storm", 1, 0)
        second, _ = bench("mc-storm", 2, 0)
        self.assertEqual(len(first), len(second))
        self.assertTrue(set(first.values()).isdisjoint(second.values()))


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
