"""Percentiles with sample counts, and open-loop lateness accounting.

Run: python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from psdbench import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(reversed(values), 99), 99)
        self.assertIsNone(stats.percentile([], 50))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_level(1000), 99.0)   # 10 beyond p99
        self.assertEqual(stats.tail_level(999), 90.0)    # 9.99 beyond p99: not enough
        self.assertEqual(stats.tail_level(100), 90.0)
        self.assertEqual(stats.tail_level(99), 50.0)
        self.assertEqual(stats.tail_level(20), 50.0)
        self.assertIsNone(stats.tail_level(19))
        self.assertEqual(stats.tail_level(5000, stats.CLOSED_LOOP_LEVELS), 90.0)

    def test_summary_carries_its_sample_count(self):
        s = stats.summarize([float(v) for v in range(1, 1001)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500.0)
        self.assertEqual(s["mean"], 500.5)
        self.assertEqual((s["tail_level"], s["tail"]), (99.0, 990.0))
        g = stats.summarize([float(v) for v in range(1, 1001)], stats.CLOSED_LOOP_LEVELS)
        self.assertEqual((g["tail_level"], g["tail"]), (90.0, 900.0))

    def test_no_tail_claimed_from_a_handful(self):
        s = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual((s["n"], s["tail_level"], s["tail"]), (3, 50.0, 2.0))

    def test_failed_requests_miss_every_limit(self):
        values = [1.0] * 85 + [math.inf] * 15  # 15 of 100 failed
        self.assertEqual(stats.summarize(values)["tail_level"], 90.0)
        self.assertEqual(stats.summarize(values)["tail"], math.inf)
        self.assertEqual(stats.summarize(values)["p50"], 1.0)
        self.assertEqual(stats.summarize(values)["mean"], math.inf)

    def test_median_and_rate(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        self.assertIsNone(stats.median([]))
        # 11 completions spread over one second: 10 intervals per second.
        self.assertAlmostEqual(stats.rate([k * 100_000_000 for k in range(11)]), 10.0)
        self.assertEqual(stats.rate([5]), 0.0)


def rec(due_ns, sent_ns, recv_ns):
    return SimpleNamespace(due_ns=due_ns, sent_ns=sent_ns, recv_ns=recv_ns)


class LatenessTest(unittest.TestCase):
    def test_lateness_is_sent_minus_due(self):
        recs = [rec(0, 0, 10), rec(1_000_000, 3_500_000, 4_000_000),
                rec(2_000_000, -1, -1)]  # never sent: not counted
        self.assertEqual(stats.lateness(recs), [0.0, 2.5])

    def test_backlog(self):
        steady = [rec(k * 1_000_000, k * 1_000_000, k * 1_000_000 + 200_000)
                  for k in range(100)]
        self.assertFalse(stats.backlog_grows(steady, limit_ms=5.0))
        # The last answer lands 50 ms after the last due time: a backlog.
        lagging = steady[:-1] + [rec(99_000_000, 99_000_000, 149_000_000)]
        self.assertTrue(stats.backlog_grows(lagging, limit_ms=5.0))
        unanswered = steady[:-1] + [rec(99_000_000, 99_000_000, -1)]
        self.assertTrue(stats.backlog_grows(unanswered, limit_ms=5.0))


if __name__ == "__main__":
    unittest.main()
