#!/usr/bin/env python3
"""The benchmark's own tests. Run from the checkout root:

    python3 perfbench/test_perfbench.py

* The output checkers reject a corrupted schedule and a dropped,
  duplicated or cross-wired reply line (the runner's --selftest).
* Every workload of perfbench/workloads.json (the gated ones of
  BENCHMARK.json and the edge workloads), run at tiny scale, ends with a
  correct result line that names every BENCHMARK.json metric with its unit,
  untraced (end-to-end metrics) and traced (per-layer metrics, plus a span
  file that passes tools/validate_trace.py, which run.py checks).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_checkers_reject_corrupted_output(self):
        out = subprocess.run([os.path.join(run.BUILD, "perfbench"),
                              "--selftest"], capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("selftest ok", out.stdout)

    def test_every_workload_emits_every_metric(self):
        bench = bench_json()
        with open(os.path.join(HERE, "workloads.json")) as f:
            workloads = json.load(f)["workloads"]
        for workload in workloads:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    out = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload["name"], "--seed", "7",
                         "--seconds", "2", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    for m in bench[key]:
                        got = result["metrics"].get(m["name"])
                        self.assertIsNotNone(got, m["name"])
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertEqual(len(result["metrics"]), len(bench[key]))


if __name__ == "__main__":
    unittest.main()
