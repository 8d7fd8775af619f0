#!/usr/bin/env python3
"""Output contract of perfbench: every metric is printed with its unit and
sample count, and the result line matches BENCHMARK.json.

Run from anywhere: python3 perfbench/tests/test_output.py
Each workload runs briefly (2 s windows) untraced and traced.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics each workload reports by name (report lines).
NAMED = {
    "hot_read": {"setup_s": "s", "lat_p50_ms": "ms", "lat_p99_ms": "ms",
                 "max_rps": "req/s", "fail_ratio": "ratio",
                 "recall_at_10": "ratio", "peak_rss_mb": "MB"},
    "train_publish": {"setup_s": "s", "lat_p50_ms": "ms", "lat_p99_ms": "ms",
                      "epoch_s": "s", "fail_ratio": "ratio",
                      "recall_at_10": "ratio",
                      "hr_at_10": "ratio", "ndcg_at_10": "ratio",
                      "peak_rss_mb": "MB"},
    "restart": {"setup_s": "s", "restart_p50_ms": "ms",
                "restart_p99_ms": "ms", "fail_ratio": "ratio",
                "recall_at_10": "ratio", "peak_rss_mb": "MB"},
}
NAMED["cold_read"] = NAMED["hot_read"]

METRIC_LINE = re.compile(r"^metric (\S+)\s+(-?[0-9.]+)\s+(\S+)\s*(.*)$")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m:
            report[m.group(1)] = (float(m.group(2)), m.group(3), m.group(4))
    return json.loads(lines[-1]), report


class LayerTableTest(unittest.TestCase):
    def test_benchmark_json_matches_the_program_table(self):
        src = (ROOT / "perfbench" / "src" / "main.cc").read_text()
        table = src[src.index("kLayerMetrics[]"):src.index("class LayerMetrics")]
        program = re.findall(r'\{"([a-z_.0-9]+)", "([^"]+)"\}', table)
        declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
        self.assertEqual(program, declared)


class OutputTest(unittest.TestCase):
    def check_result(self, result):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_every_workload(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload, trace=0):
                result, report = run(workload, 0)
                self.check_result(result)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, e2e)
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)
                for name, unit in NAMED[workload].items():
                    self.assertIn(name, report)
                    _, printed_unit, samples = report[name]
                    self.assertEqual(printed_unit, unit, name)
                    self.assertRegex(samples, r"(n=\d+|attempted=\d+ failed=\d+)", name)
            with self.subTest(workload=workload, trace=1):
                result, _ = run(workload, 1)
                self.check_result(result)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, layers)
                self.assertGreater(result["metrics"]["trace.overhead"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
