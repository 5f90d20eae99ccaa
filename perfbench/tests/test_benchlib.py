"""Self-tests of the benchmark's Python side.  Run with
python3 perfbench/run.py --selftest (which also builds and runs the C++
self-tests), or python3 -m unittest discover -s perfbench/tests.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 201))
        self.assertEqual(benchlib.nearest_rank(xs, 0.50), 100)
        self.assertEqual(benchlib.nearest_rank(xs, 0.95), 190)
        self.assertEqual(benchlib.nearest_rank(xs, 1.0), 200)
        self.assertEqual(benchlib.nearest_rank([7.0], 0.95), 7.0)
        self.assertEqual(benchlib.nearest_rank([3, 1, 2], 0.5), 2)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([1.0], 0.0)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(benchlib.samples_beyond(200, 0.95), 10)
        self.assertEqual(benchlib.samples_beyond(199, 0.95), 9)
        self.assertEqual(benchlib.tail_percentile(list(range(200)), 0.95),
                         189)
        self.assertIsNone(benchlib.tail_percentile(list(range(199)), 0.95))
        self.assertIsNone(benchlib.tail_percentile([], 0.5))


class FailedShareTest(unittest.TestCase):
    def test_every_failure_kind_counts(self):
        tally = {"attempted": 10, "refused": 1, "failed": 1, "degraded": 1,
                 "aborted": 1, "wrong": 1}
        self.assertEqual(benchlib.failed_share(tally), 0.5)
        self.assertEqual(benchlib.failed_share({"attempted": 4}), 0.0)
        with self.assertRaises(ValueError):
            benchlib.failed_share({"attempted": 0})

    def test_aggregate_sums_inputs_and_pools_responses(self):
        def run(host, makespan, responses, wrong=0):
            return {"host_s": host, "host_cpu_s": 2 * host, "setup_s": 0.1,
                    "peak_rss_mb": 50.0, "virtual_makespan_s": makespan,
                    "response_s": responses, "attempted": len(responses),
                    "refused": 0, "failed": 0, "degraded": 0, "aborted": 0,
                    "wrong": wrong}
        a = [float(i) for i in range(150)]
        b = [float(i) for i in range(150, 300)]
        per_input = {0: [run(1.0, 10.0, a), run(3.0, 10.0, a)],
                     1: [run(5.0, 20.0, b, wrong=3)]}
        values, tally, consistent = benchlib.aggregate("serve_diurnal",
                                                       per_input)
        self.assertTrue(consistent)
        self.assertEqual(values["host_s"], 2.0 + 5.0)
        self.assertEqual(values["virtual_makespan_s"], 30.0)
        self.assertEqual(values["response_p95_s"], 284.0)
        self.assertEqual(tally["attempted"], 450)
        self.assertEqual(values["failed_share"], 3 / 450)
        per_input[0][1] = run(3.0, 11.0, a)
        self.assertFalse(benchlib.aggregate("serve_diurnal", per_input)[2])


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json") as f:
            self.spec = json.load(f)

    def test_charset_and_units(self):
        names = [n for n, _ in benchlib.END_TO_END] + list(benchlib.LAYERS)
        names += [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertTrue(benchlib.valid_name(name), name)
        units = [u for _, u in benchlib.END_TO_END]
        units += [m["unit"] for m in self.spec["end_to_end"]]
        units += [m["unit"] for m in self.spec["per_layer"]]
        for unit in units:
            self.assertTrue(benchlib.valid_unit(unit), unit)
        for bad in ("", "_x", "a b", "x" * 65, "é"):
            self.assertFalse(benchlib.valid_name(bad), bad)
        self.assertFalse(benchlib.valid_unit("m s"))

    def test_benchmark_file_matches_run_py(self):
        self.assertEqual(list(self.spec), ["command", "paths", "run_seconds",
                                           "workloads", "end_to_end",
                                           "per_layer"])
        all_names = [m["name"] for key in ("end_to_end", "per_layer")
                     for m in self.spec[key]]
        self.assertEqual(len(all_names), len(set(all_names)))
        e2e = dict(benchlib.END_TO_END)
        bounds = {}
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertEqual(e2e[m["name"]], m["unit"])
            self.assertLessEqual(m["bound"], 0.25)
            bounds[m["name"]] = m["bound"]
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["name"], benchlib.LAYERS)
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(benchlib.INPUTS))


class EveryWorkloadEmitsItsMetricsTest(unittest.TestCase):
    def test_tiny_run_of_every_workload(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all",
             "--scale", "tiny", "--seconds", "0", "--seed", "5"],
            capture_output=True, text=True, cwd=ROOT, env=dict(os.environ),
            check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for workload in benchlib.INPUTS:
            for name, unit in benchlib.END_TO_END:
                key = f"{workload}.{name}"
                if benchlib.applies(name, workload):
                    self.assertIsNotNone(result["metrics"][key]["value"],
                                         key)
                    self.assertEqual(result["metrics"][key]["unit"], unit)
                else:
                    self.assertNotIn(key, result["metrics"])
                    self.assertIn(f"{name:<20} n/a", proc.stdout)


if __name__ == "__main__":
    unittest.main()
