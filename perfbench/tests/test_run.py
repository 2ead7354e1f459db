"""Self-test of perfbench/run.py's aggregation and of BENCHMARK.json.

Run through `python3 perfbench/run.py --selftest`, or directly with
`python3 -m unittest discover -s perfbench/tests`.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


def synthetic_doc():
    rounds = [
        {"wall_s": 9.0, "setup_s": 7.0, "cycles": 300.0, "hop_events": 600.0},
        {"wall_s": 2.0, "setup_s": 0.5, "cycles": 300.0, "hop_events": 600.0},
        {"wall_s": 4.0, "setup_s": 1.0, "cycles": 300.0, "hop_events": 600.0},
        {"wall_s": 3.0, "setup_s": 0.0, "cycles": 300.0, "hop_events": 600.0},
    ]
    results = [
        {"accepted_load": 0.2, "avg_latency": 100.0, "p99_latency": 300.0},
        {"accepted_load": 0.4, "avg_latency": 200.0, "p99_latency": 500.0},
    ]
    wl = {"workload": "w", "seed": 1, "points": 2, "jobs": 4,
          "failed_points": 0, "failures": [], "rounds": rounds,
          "results": results, "per_layer": {}}
    return {"host": {}, "peak_rss_mb": 12.5, "workloads": [wl]}, wl


class EndToEndTest(unittest.TestCase):
    def test_host_times_are_medians_over_rounds_after_warmup(self):
        doc, wl = synthetic_doc()
        m = run.end_to_end(doc, wl)
        self.assertEqual(m["wall_s"], 3.0)
        self.assertEqual(m["setup_s"], 0.5)
        # Per-round rates 300/1.5, 300/3, 300/3 -> median 100.
        self.assertEqual(m["cycles_per_s"], 100.0)
        self.assertEqual(m["hops_per_s"], 200.0)
        self.assertEqual(m["peak_rss_mb"], 12.5)

    def test_simulated_metrics_are_point_means(self):
        doc, wl = synthetic_doc()
        m = run.end_to_end(doc, wl)
        self.assertAlmostEqual(m["sim_accepted_load"], 0.3)
        self.assertEqual(m["sim_latency_cycles"], 150.0)
        self.assertEqual(m["sim_latency_p99_cycles"], 400.0)


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         run.WORKLOADS)

    def test_names_units_and_bounds(self):
        names = []
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], run.NAME_RE)
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        for w in self.spec["workloads"]:
            self.assertRegex(w["name"], run.NAME_RE)
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
