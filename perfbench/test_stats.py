"""Self-tests for the benchmark's arithmetic (stats.py).

Run: python3 perfbench/test_stats.py
run.py also runs them before every measurement and refuses to report
numbers if one fails.
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_linear_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 4.0)
        self.assertAlmostEqual(stats.percentile(values, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(values, 25), 1.75)

    def test_median_odd(self):
        self.assertEqual(stats.median([5.0, 1.0, 3.0]), 3.0)

    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: 10 lie beyond p99, so p99 itself is reported.
        values = list(range(1, 1001))
        value, used = stats.tail_percentile(values, 99)
        self.assertEqual(used, 99)
        self.assertAlmostEqual(value, stats.percentile(values, 99))
        beyond = sum(1 for v in values if v > value)
        self.assertGreaterEqual(beyond, stats.TAIL_SAMPLES)

    def test_small_sample_falls_back_to_supported_percentile(self):
        values = list(range(1, 101))
        value, used = stats.tail_percentile(values, 99)
        self.assertAlmostEqual(used, 90.0)
        beyond = sum(1 for v in values if v > value)
        self.assertGreaterEqual(beyond, stats.TAIL_SAMPLES)

    def test_tiny_sample_reports_the_median(self):
        value, used = stats.tail_percentile([3.0, 1.0, 2.0], 99)
        self.assertEqual(used, 50.0)
        self.assertEqual(value, 2.0)


class GeomeanTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(stats.geomean([2.0, 8.0, 4.0]), 4.0)

    def test_one_win_moves_the_geomean(self):
        before = stats.geomean([1000.0, 10.0, 10.0])
        after = stats.geomean([1000.0, 5.0, 10.0])
        self.assertLess(after, before)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [
            ["query", 0.0, 10.0, -1],
            ["plan", 1.0, 2.0, 0],
            ["execute", 3.0, 6.0, 0],
            ["materialize_bags", 3.5, 4.0, 2],
        ]
        self_ms = stats.self_times(spans)
        self.assertAlmostEqual(self_ms["query"], 2.0)
        self.assertAlmostEqual(self_ms["plan"], 2.0)
        self.assertAlmostEqual(self_ms["execute"], 2.0)
        self.assertAlmostEqual(self_ms["materialize_bags"], 4.0)
        self.assertAlmostEqual(sum(self_ms.values()), 10.0)

    def test_overlapping_children_counted_once(self):
        spans = [
            ["parent", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 3.0, 4.0, 0],
        ]
        self.assertAlmostEqual(stats.self_times(spans)["parent"], 4.0)

    def test_child_clipped_to_parent(self):
        spans = [["parent", 0.0, 5.0, -1], ["late", 4.0, 3.0, 0]]
        self.assertAlmostEqual(stats.self_times(spans)["parent"], 4.0)

    def test_same_name_summed(self):
        spans = [
            ["execute", 0.0, 10.0, -1],
            ["full_reduce", 1.0, 1.0, 0],
            ["full_reduce", 5.0, 2.0, 0],
        ]
        self_ms = stats.self_times(spans)
        self.assertAlmostEqual(self_ms["full_reduce"], 3.0)
        self.assertAlmostEqual(self_ms["execute"], 7.0)


class DiffRuleTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_quartiles_match_statistics(self):
        q1, q2, q3 = stats.quartiles(self.BASE)
        self.assertEqual([q1, q2, q3], statistics.quantiles(self.BASE, n=4))

    def test_within_bound_is_same(self):
        change = [v * 1.02 for v in self.BASE]
        verdict, worse = stats.compare(self.BASE, change, 0.05, "lower")
        self.assertEqual(verdict, "same")
        self.assertAlmostEqual(worse, 0.02, places=3)

    def test_regression_flagged(self):
        change = [v * 1.2 for v in self.BASE]
        self.assertEqual(
            stats.compare(self.BASE, change, 0.1, "lower")[0], "regressed")

    def test_direction_respected(self):
        change = [v * 1.2 for v in self.BASE]
        self.assertEqual(
            stats.compare(self.BASE, change, 0.1, "higher")[0], "improved")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0,
                 100.0]
        change = [v * 1.3 for v in noisy]
        self.assertEqual(
            stats.compare(noisy, change, 0.1, "lower")[0], "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base = [100.0, 140.0, 120.0, 160.0, 110.0]
        change = [10.0, 14.0, 12.0, 16.0, 11.0]
        self.assertEqual(stats.compare(base, change, 0.1, "lower")[0],
                         "better")

    def test_spread_of_constant_is_zero(self):
        self.assertEqual(stats.spread([3.0, 3.0, 3.0]), 0.0)
        self.assertTrue(math.isinf(stats.spread([-1.0, 0.0, 0.0, 1.0])))


if __name__ == "__main__":
    unittest.main()
