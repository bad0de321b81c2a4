#!/usr/bin/env python3
"""Tests of the benchmark itself: run with `python3 perfbench/test_perfbench.py`.

Builds the benchmark (as run.py does), runs its C++ self-test (summary
helpers, seeded generator), then short runs of every workload: each must
print every metric BENCHMARK.json names, with fail_frac 0, and the traced
counters must repeat exactly for a seed.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
# Counters the traced run derives from exact counts, not from timers.
COUNTERS = ("copy.dav_bytes_per_op", "copy.kernel_calls_per_op",
            "runtime.barriers_per_op", "runtime.flag_posts_per_op",
            "runtime.flag_waits_per_op", "coll.nt_prior_share",
            "coll.plan_hit_ratio", "model.dav_ratio")


def bench(workload, seed, trace, seconds=0.3):
    """Runs one short measurement; returns (stdout, parsed result line)."""
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S + 60, check=True)
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build()

    def test_selftest(self):
        subprocess.run([os.path.join(self.bdir, "perfbench_selftest")], check=True)

    def test_every_metric_is_printed_and_correct(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    text, res = bench(w["name"], 1, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, names)
                    self.assertIn("fail_frac", text)
                    if trace == 0:
                        for k, v in res["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_counters_repeat_for_a_seed(self):
        def counters(workload, seed):
            m = bench(workload, seed, 1)[1]["metrics"]
            return {k: m[k]["value"] for k in COUNTERS}

        small = counters("allreduce-small", 5)
        self.assertEqual(small, counters("allreduce-small", 5))
        self.assertEqual(counters("step-process", 5), counters("step-process", 5))
        # The seed draws the size mix, which moves the per-op traffic ...
        self.assertNotEqual(small["copy.dav_bytes_per_op"],
                            counters("allreduce-small", 6)["copy.dav_bytes_per_op"])
        # ... and nothing else: allreduce-large has no seeded choice.
        self.assertEqual(counters("allreduce-large", 5), counters("allreduce-large", 6))


if __name__ == "__main__":
    unittest.main()
