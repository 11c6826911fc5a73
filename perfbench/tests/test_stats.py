"""Tests of the benchmark's statistics helpers (perfbench/stats.py)."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        v, n = stats.percentile(values, 99)
        self.assertEqual(n, 1000)
        self.assertEqual(v, 990)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_p99_refused_with_nine_beyond(self):
        v, n = stats.percentile(list(range(999)), 99)
        self.assertIsNone(v)
        self.assertEqual(n, 999)

    def test_median_percentile(self):
        v, n = stats.percentile([5, 1, 3, 2, 4] * 10, 50)
        self.assertEqual((v, n), (3, 50))

    def test_empty(self):
        self.assertEqual(stats.percentile([], 50), (None, 0))

    def test_beyond_count(self):
        self.assertEqual(stats.beyond_count(1000, 99), 10)
        self.assertEqual(stats.beyond_count(999, 99), 9)
        self.assertEqual(stats.beyond_count(20, 50), 10)

    def test_highest_reportable(self):
        self.assertEqual(stats.highest_reportable(10000), 99.9)
        self.assertEqual(stats.highest_reportable(1000), 99.0)
        self.assertEqual(stats.highest_reportable(500), 95.0)
        self.assertEqual(stats.highest_reportable(20), 50.0)
        self.assertIsNone(stats.highest_reportable(19))


class BlockedPercentileTest(unittest.TestCase):
    def test_one_stall_moves_one_block_only(self):
        values = [1.0] * 3000
        values[100:140] = [50.0] * 40   # one stall inside block 0
        v, n, k = stats.blocked_percentile(values, 99)
        self.assertEqual((v, n, k), (1.0, 3000, 3))
        self.assertEqual(stats.percentile(values, 99)[0], 50.0)

    def test_needs_a_full_block(self):
        self.assertEqual(stats.blocked_percentile([1.0] * 999, 99),
                         (None, 999, 0))
        v, n, k = stats.blocked_percentile(list(range(1000)), 99)
        self.assertEqual((v, k), (989, 1))

    def test_remainder_joins_last_block(self):
        v, n, k = stats.blocked_percentile([2.0] * 2999, 99)
        self.assertEqual((v, n, k), (2.0, 2999, 2))


class BlockedMeanTest(unittest.TestCase):
    def test_bimodal_samples_give_a_steady_value(self):
        # Two speed states switching every 50 samples: the pooled
        # median sits in one mode, the blocked mean between them.
        fast_first = ([0.6] * 50 + [1.0] * 50) * 30
        slow_first = ([1.0] * 50 + [0.6] * 50) * 30
        for values in (fast_first, slow_first):
            v, n, k = stats.blocked_mean(values)
            self.assertAlmostEqual(v, 0.8)
            self.assertEqual((n, k), (3000, 3))

    def test_median_over_blocks(self):
        values = [1.0] * 2000 + [9.0] * 1000
        self.assertEqual(stats.blocked_mean(values)[0], 1.0)

    def test_needs_a_full_block(self):
        self.assertEqual(stats.blocked_mean([1.0] * 999), (None, 999, 0))


class BlockedSumOfMeansTest(unittest.TestCase):
    def test_sums_each_blocks_means_over_jobs(self):
        # Two jobs, ten samples each: five blocks of two.
        a = [1.0, 3.0] * 5
        b = [10.0] * 10
        self.assertEqual(stats.blocked_sum_of_means([a, b]),
                         (12.0, 20, 5))

    def test_median_over_blocks(self):
        per_job = [[1.0] * 6 + [50.0] * 2]
        v, n, k = stats.blocked_sum_of_means(per_job, nblocks=4)
        self.assertEqual((v, n, k), (1.0, 8, 4))

    def test_few_samples_give_fewer_blocks(self):
        self.assertEqual(stats.blocked_sum_of_means([[2.0, 4.0, 6.0]]),
                         (4.0, 3, 3))

    def test_a_job_without_samples(self):
        self.assertEqual(stats.blocked_sum_of_means([[1.0], []]),
                         (None, 0, 0))
        self.assertEqual(stats.blocked_sum_of_means([]), (None, 0, 0))


class PerSecondTest(unittest.TestCase):
    def test_bins_drop_partial_tail(self):
        self.assertEqual(stats.per_second([0.1, 0.9, 1.5, 2.99, 3.2], 3),
                         [2, 1, 1])


class HdMedianTest(unittest.TestCase):
    def test_symmetric_values_give_the_middle(self):
        self.assertEqual(stats.hd_median([5.0]), 5.0)
        self.assertAlmostEqual(stats.hd_median([3.0, 1.0]), 2.0)
        self.assertAlmostEqual(stats.hd_median(range(1, 21)), 10.5)

    def test_moves_less_than_the_median_with_one_middle_value(self):
        # The fourth of eight values moves from 4 to 5.9: the plain
        # median moves by half of that, this estimate by less.
        before = [1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0]
        after = [1.0, 2.0, 3.0, 5.9, 6.0, 7.0, 8.0, 9.0]
        moved = stats.hd_median(after) - stats.hd_median(before)
        self.assertGreater(moved, 0.0)
        self.assertLess(moved,
                        statistics.median(after) - statistics.median(before))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
        self.assertEqual(stats.quartiles(values),
                         statistics.quantiles(values, n=4))

    def test_iqr_share(self):
        values = [10.0] * 4 + [11.0, 9.0, 12.0, 8.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.iqr_share(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(stats.iqr_share([7.0] * 10), 0.0)


class RatioTest(unittest.TestCase):
    def test_ratio_printed_with_base(self):
        text = stats.ratio_text(0.934, "hits", 9340, "probes", 10000)
        self.assertEqual(text, "0.9340 (hits 9340 / probes 10000)")

    def test_non_integral_base(self):
        text = stats.ratio_text(0.5, "wait_s", 0.25, "worker_s", 0.5)
        self.assertIn("wait_s 0.25 / worker_s 0.5", text)

    def test_empty_base(self):
        self.assertEqual(stats.ratio(3, 0), 0.0)
        self.assertEqual(stats.ratio(3, 4), 0.75)


if __name__ == "__main__":
    unittest.main()
