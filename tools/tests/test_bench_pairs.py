"""Tests of the pair statistics in tools/bench_pairs.py. Run from the repository root:

    python3 -m unittest discover -s tools/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench_pairs  # noqa: E402

LOWER = {"name": "latency_p50_ms", "unit": "ms", "better": "lower"}
HIGHER = {"name": "requests_per_s", "unit": "1/s", "better": "higher"}


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(bench_pairs.quantile(values, 0.0), 1.0)
        self.assertEqual(bench_pairs.quantile(values, 1.0), 4.0)
        self.assertEqual(bench_pairs.quantile(values, 0.5), 2.5)
        self.assertEqual(bench_pairs.quantile(values, 0.25), 1.75)

    def test_single_value_is_every_quantile(self):
        for q in (0.0, 0.25, 0.5, 1.0):
            self.assertEqual(bench_pairs.quantile([7.0], q), 7.0)


class SpreadTest(unittest.TestCase):
    def test_sorts_for_quartiles_but_keeps_run_order(self):
        row = bench_pairs.spread([5.0, 1.0, 3.0])
        self.assertEqual(row["median"], 3.0)
        self.assertEqual(row["q1"], 2.0)
        self.assertEqual(row["q3"], 4.0)
        self.assertEqual(row["runs"], [5.0, 1.0, 3.0])


class CompareTest(unittest.TestCase):
    PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_clear_gain_that_wins_every_pair_is_better(self):
        child = [v * 0.7 for v in self.PARENT]
        row = bench_pairs.compare(LOWER, self.PARENT, child)
        self.assertEqual(row["verdict"], "better")
        self.assertEqual(row["child_wins"], 10)
        self.assertEqual(row["parent_wins"], 0)
        self.assertAlmostEqual(row["change"], -0.3)

    def test_nine_of_ten_wins_is_enough(self):
        child = [v * 0.7 for v in self.PARENT]
        child[3] = self.PARENT[3] + 1.0  # One lost pair.
        row = bench_pairs.compare(LOWER, self.PARENT, child)
        self.assertEqual(row["child_wins"], 9)
        self.assertEqual(row["verdict"], "better")

    def test_median_gain_beyond_the_spread_without_nine_tenths_is_mixed(self):
        child = [v * 0.7 for v in self.PARENT]
        child[3] = self.PARENT[3] + 1.0
        child[6] = self.PARENT[6] + 1.0  # Two lost pairs: 8/10.
        row = bench_pairs.compare(LOWER, self.PARENT, child)
        self.assertEqual(row["child_wins"], 8)
        self.assertEqual(row["verdict"], "mixed")

    def test_ties_count_for_neither_side(self):
        parent = [1.0] * 10
        row = bench_pairs.compare(LOWER, parent, list(parent))
        self.assertEqual((row["child_wins"], row["parent_wins"]), (0, 0))
        self.assertEqual(row["verdict"], "within_spread")
        self.assertEqual(row["change"], 0.0)

    def test_distance_inside_the_spread_is_within_spread_even_with_all_wins(self):
        parent = [10.0, 12.0, 14.0, 16.0, 18.0]
        child = [v - 0.5 for v in parent]  # Wins 5/5 by less than the IQR (4).
        row = bench_pairs.compare(LOWER, parent, child)
        self.assertEqual(row["child_wins"], 5)
        self.assertEqual(row["verdict"], "within_spread")

    def test_clear_regression_is_worse(self):
        child = [v * 1.5 for v in self.PARENT]
        row = bench_pairs.compare(LOWER, self.PARENT, child)
        self.assertEqual(row["parent_wins"], 10)
        self.assertEqual(row["verdict"], "worse")

    def test_higher_is_better_flips_the_direction(self):
        child = [v * 1.5 for v in self.PARENT]
        row = bench_pairs.compare(HIGHER, self.PARENT, child)
        self.assertEqual(row["child_wins"], 10)
        self.assertEqual(row["verdict"], "better")

    def test_zero_parent_median_reports_no_change_ratio(self):
        row = bench_pairs.compare(LOWER, [0.0] * 3, [1.0] * 3)
        self.assertIsNone(row["change"])


class ParseRunTest(unittest.TestCase):
    def test_defaults_fill_missing_fields(self):
        self.assertEqual(bench_pairs.parse_run("rag_open_loop", 0), ("rag_open_loop", 1, 0))
        self.assertEqual(bench_pairs.parse_run("slow_flash:7919", 2), ("slow_flash", 7919, 2))

    def test_explicit_trace_pairs_override(self):
        self.assertEqual(bench_pairs.parse_run("rag_open_loop:1:5", 0), ("rag_open_loop", 1, 5))

    def test_rejects_malformed_specs(self):
        for spec in ("", ":1", "w:1:-1", "w:1:2:3", "w:x"):
            with self.assertRaises(ValueError, msg=spec):
                bench_pairs.parse_run(spec, 0)


if __name__ == "__main__":
    unittest.main()
