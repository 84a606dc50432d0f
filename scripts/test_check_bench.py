#!/usr/bin/env python3
"""Unit tests for check_bench.compare, the walker over each record's gates.

Runs on synthetic baseline/fresh records, no bench binaries needed:

  python3 scripts/test_check_bench.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402

BASELINE = {
    "bench": "synthetic",
    "deterministic": True,
    "orderings": {"a_beats_b": True},
    "summary": {"steps": 12, "wall_seconds": 2.0, "jobs_per_min": 300.0},
    "points": [
        {"workload": "gemm", "threads": 1, "median_ms": 1.0, "gflops": 30.0},
        {"workload": "gemm", "threads": 4, "median_ms": 0.5, "gflops": 60.0},
        {"workload": "acc", "threads": 4, "best_acc": 0.9},
    ],
    "gates": {
        "exact": ["deterministic", "orderings.a_beats_b", "summary.steps"],
        "wall": ["points[].median_ms", "summary.wall_seconds"],
        "floor": ["points[].gflops", "summary.jobs_per_min"],
    },
}


def run(fresh, baseline=BASELINE, slack=3.0):
    gate = check_bench.Gate(slack)
    check_bench.compare(gate, "synthetic", baseline, fresh)
    return gate


class CompareTest(unittest.TestCase):
    def fresh(self):
        return copy.deepcopy(BASELINE)

    def assert_fails(self, fresh, field):
        gate = run(fresh)
        self.assertTrue(gate.failed)
        failing = [row[1] for row in gate.rows if not row[5]]
        self.assertEqual(failing, [field])

    def test_identical_records_pass(self):
        gate = run(self.fresh())
        self.assertFalse(gate.failed)
        fields = [row[1] for row in gate.rows]
        # One gates row, three exact, two timed points with two fields
        # each (the accuracy point carries neither), two top-level bounds.
        self.assertEqual(fields, [
            "gates", "deterministic", "orderings.a_beats_b", "summary.steps",
            "points[gemm,t1].median_ms", "points[gemm,t1].gflops",
            "points[gemm,t4].median_ms", "points[gemm,t4].gflops",
            "summary.wall_seconds", "summary.jobs_per_min"])

    def test_flipped_exact_value_fails(self):
        fresh = self.fresh()
        fresh["orderings"]["a_beats_b"] = False
        self.assert_fails(fresh, "orderings.a_beats_b")

    def test_dropped_baseline_point_fails(self):
        fresh = self.fresh()
        fresh["points"] = [p for p in fresh["points"]
                           if p["workload"] != "acc"]
        self.assert_fails(fresh, "points[acc,t4]")

    def test_missing_gated_field_fails(self):
        fresh = self.fresh()
        del fresh["summary"]["steps"]
        self.assert_fails(fresh, "summary.steps")
        fresh = self.fresh()
        del fresh["points"][0]["median_ms"]
        self.assert_fails(fresh, "points[gemm,t1].median_ms")

    def test_changed_gates_fail(self):
        fresh = self.fresh()
        fresh["gates"]["exact"].remove("summary.steps")
        self.assert_fails(fresh, "gates")
        fresh = self.fresh()
        del fresh["gates"]
        self.assert_fails(fresh, "gates")

    def test_baseline_without_gates_fails(self):
        baseline = self.fresh()
        del baseline["gates"]
        gate = run(self.fresh(), baseline)
        self.assertTrue(gate.failed)

    def test_wall_above_slack_fails(self):
        fresh = self.fresh()
        fresh["summary"]["wall_seconds"] = 2.0 * 3.0 * 1.01
        self.assert_fails(fresh, "summary.wall_seconds")
        fresh = self.fresh()
        fresh["points"][1]["median_ms"] = 0.5 * 3.0 * 1.01
        self.assert_fails(fresh, "points[gemm,t4].median_ms")

    def test_wall_within_slack_passes(self):
        fresh = self.fresh()
        fresh["summary"]["wall_seconds"] = 2.0 * 3.0
        fresh["points"][0]["median_ms"] = 2.9
        self.assertFalse(run(fresh).failed)

    def test_floor_below_slack_fails(self):
        fresh = self.fresh()
        fresh["summary"]["jobs_per_min"] = 300.0 / 3.0 * 0.99
        self.assert_fails(fresh, "summary.jobs_per_min")
        fresh = self.fresh()
        fresh["points"][0]["gflops"] = 30.0 / 3.0 * 0.99
        self.assert_fails(fresh, "points[gemm,t1].gflops")


if __name__ == "__main__":
    unittest.main()
