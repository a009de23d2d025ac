"""Answer comparison and DP invariants.

Run: python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from psdbench import answers  # noqa: E402


def answer(**over):
    base = {"steps": 12, "optimal_ns": 100.0, "static_ns": 120.0,
            "naive_bvn_ns": 150.0, "greedy_ns": 110.0, "reconfigurations": 1,
            "speedup_vs_static": 1.2, "speedup_vs_bvn": 1.5, "pipelined_ns": 90.0,
            "pipeline_chunks": 2}
    base.update(over)
    return answers.answer_of(base)


class AnswerTest(unittest.TestCase):
    def test_every_field_takes_part(self):
        changed = {"steps": 13, "optimal_ns": 100.00000000000001, "static_ns": 121.0,
                   "naive_bvn_ns": 151.0, "greedy_ns": 111.0, "reconfigurations": 2,
                   "speedup_vs_static": 1.25, "speedup_vs_bvn": 1.55,
                   "pipelined_ns": 91.0, "pipeline_chunks": 4, "chosen_algo": "ring"}
        self.assertEqual(set(changed), set(answers.ANSWER_FIELDS))
        self.assertEqual(answer(), answer())
        for field, value in changed.items():
            self.assertNotEqual(answer(**{field: value}), answer(), field)


class DpTest(unittest.TestCase):
    def test_optimal_never_above_a_baseline(self):
        self.assertEqual(answers.dp_violations(answer()), [])
        self.assertEqual(len(answers.dp_violations(answer(greedy_ns=99.0))), 1)
        self.assertEqual(len(answers.dp_violations(answer(pipelined_ns=101.0))), 1)


if __name__ == "__main__":
    unittest.main()
