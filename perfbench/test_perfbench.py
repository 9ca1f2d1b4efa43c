#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py

- the oracle's compare functions reject a buffer with one flipped byte
  (oracle_test, a check on the checker rather than on the program);
- a tiny configuration of every workload in BENCHMARK.json finishes
  quickly, is correct, and emits exactly the metrics BENCHMARK.json
  names, each with its unit, untraced and traced;
- without the source tree next to it, run.py fails fast and prints no
  result.
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
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(("gkfs_perfbench", "oracle_test"))

    def test_oracle_rejects_flipped_byte(self):
        r = subprocess.run([os.path.join(self.out, "oracle_test")],
                           capture_output=True, text=True, timeout=60)
        self.assertEqual(r.returncode, 0, r.stderr)

    def check_tiny(self, workload, trace, want):
        cmd = [os.path.join(self.out, "gkfs_perfbench"), "--workload",
               workload, "--seed", "7", "--seconds", "1", "--trace",
               str(trace), "--tiny", "--root",
               os.path.join(ROOT, ".bench_data")]
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        res = result_of(r.stdout)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in want})
        for name, v in res["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_tiny_workloads_emit_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_tiny(w["name"], 0, SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_tiny(w["name"], 1, SPEC["per_layer"])

    def test_refuses_without_source_tree(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            r = subprocess.run(
                [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
