#!/usr/bin/env python3
"""The benchmark's own tests (stdlib only, about a minute).

    python3 perfbench/test_bench.py          # from the repository root

* Determinism: two sim_paper runs with one seed print identical virtual
  figures; another seed changes them (the seed reaches the key stream).
* Shape: a run's result line has exactly its four keys and every
  end-to-end metric of BENCHMARK.json with its unit; a traced run has
  every per-layer metric.
* The paper's 2-barrier invariant: on sim_paper each flush or compaction
  issues exactly one data barrier and one MANIFEST barrier.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["info"], json.loads(lines[-1])


class SimPaperTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.a = run("sim_paper", 7)
        cls.b = run("sim_paper", 7)
        cls.c = run("sim_paper", 8)

    def test_runs_pass(self):
        for code, info, result in (self.a, self.b, self.c):
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertTrue(info["passes_identical"])

    def test_same_seed_repeats_exactly(self):
        self.assertEqual(self.a[1]["virtual"], self.b[1]["virtual"])
        for name in ("write_amp", "space_amp", "barriers_per_gb"):
            self.assertEqual(self.a[2]["metrics"][name],
                             self.b[2]["metrics"][name], name)

    def test_other_seed_changes_key_stream(self):
        self.assertNotEqual(self.a[1]["virtual"]["a_vops"],
                            self.c[1]["virtual"]["a_vops"])

    def test_result_shape(self):
        result = self.a[2]
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertGreater(v["value"], 0)

    def test_traced_run(self):
        code, info, result = run("sim_paper", 7, trace=1)
        self.assertEqual(code, 0)
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        m = result["metrics"]
        self.assertEqual(m["compaction.data_barriers_per_job"]["value"], 1.0)
        self.assertEqual(m["compaction.manifest_barriers_per_job"]["value"],
                         1.0)
        self.assertTrue(os.path.exists(info["trace_file"]))


if __name__ == "__main__":
    unittest.main()
