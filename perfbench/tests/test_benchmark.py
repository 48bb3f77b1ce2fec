#!/usr/bin/env python3
"""Checks that tie perfbench to BENCHMARK.json.

    python3 perfbench/tests/test_benchmark.py [-v]

The binary is $PERFBENCH_BIN, by default .bench_build/cmake/cxlpmem_bench
(built by perfbench/run.py).  Checks: every metric the binary prints is declared in
BENCHMARK.json with the same unit, and vice versa; BENCHMARK.json keeps the
benchmark contract's shape; run.py refuses a checkout without sources.
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BIN = pathlib.Path(os.environ.get("PERFBENCH_BIN", ROOT / os.environ.get(
    "CARGO_TARGET_DIR", ".bench_build") / "cmake" / "cxlpmem_bench"))


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        out = subprocess.run([str(BIN), "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        printed = {"e2e": {}, "layer": {}}
        for line in out.splitlines():
            kind, name, unit = line.split()
            printed[kind][name] = unit
        s = spec()
        self.assertEqual(printed["e2e"], {m["name"]: m["unit"] for m in s["end_to_end"]})
        self.assertEqual(printed["layer"], {m["name"]: m["unit"] for m in s["per_layer"]})


class ContractShape(unittest.TestCase):
    def test_keys_and_limits(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + \
                [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})


class NoSources(unittest.TestCase):
    def test_run_refuses_a_checkout_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(ROOT / "perfbench", pathlib.Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                "kv_write", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=d, capture_output=True,
                               text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
