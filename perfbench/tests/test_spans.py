"""Span parsing, self time and reconciliation sums.

Run: python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from psdbench import spans  # noqa: E402

# index parent request name start end
TRACE = """\
0\t-1\t7\tserve.request\t0\t1000
1\t0\t7\tserve.parse\t0\t50
2\t0\t7\tserve.solve\t100\t900
3\t2\t7\tflow.theta.gk\t100\t600
4\t2\t7\tcore.dp\t650\t700
5\t0\t7\tserve.emit\t900\t950
6\t-1\t8\tserve.request\t2000\t2100
"""


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.s = spans.parse(TRACE.splitlines(True))

    def test_tree(self):
        self.assertEqual([c.index for c in self.s[0].children], [1, 2, 5])
        self.assertEqual(self.s[3].request, 7)
        self.assertEqual(self.s[6].children, [])

    def test_self_time_excludes_children(self):
        self.assertEqual(spans.self_ns(self.s[2]), 800 - 500 - 50)
        self.assertEqual(spans.self_ns(self.s[0]), 1000 - 50 - 800 - 50)
        self.assertEqual(spans.self_ns(self.s[3]), 500)  # a leaf

    def test_self_times_of_a_tree_sum_to_its_root(self):
        tree = [0, 1, 2, 3, 4, 5]
        self.assertEqual(sum(spans.self_ns(self.s[i]) for i in tree),
                         self.s[0].duration_ns)

    def test_overlapping_children_count_once(self):
        self.assertEqual(spans.covered_ns(0, 100, [(10, 50), (30, 70), (60, 80)]), 70)
        # Children sticking out of the parent are clipped to it.
        self.assertEqual(spans.covered_ns(0, 100, [(-20, 10), (90, 150)]), 20)
        self.assertEqual(spans.covered_ns(0, 100, []), 0)

    def test_children_sum(self):
        self.assertEqual(spans.children_sum_ns(self.s[2]), 550)

    def test_rollup_filters(self):
        roll = spans.rollup(self.s, keep=lambda sp: sp.request == 7)
        self.assertEqual(roll["serve.request"]["dur_ns"], [1000])
        self.assertEqual(roll["flow.theta.gk"]["self_ns"], [500])
        self.assertEqual(len(spans.rollup(self.s)["serve.request"]["dur_ns"]), 2)


if __name__ == "__main__":
    unittest.main()
