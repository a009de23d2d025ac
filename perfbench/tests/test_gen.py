"""The generators: a seed regenerates byte-identical request streams and
grid specs, and the stratified mix holds its shares exactly.

Run: python3 -m unittest discover -s perfbench/tests
"""

import collections
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from psdbench import gen  # noqa: E402


def rendered(reqs):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.tsv")
        gen.write_stream(path, reqs)
        with open(path, "rb") as f:
            return f.read()


def streams(seed):
    first, deltas, again = gen.cold_sequence(seed)
    sizes = gen.FreshSizes()
    return [gen.steady_setup(),
            gen.steady_closed(seed, "sat", 3000, sizes),
            gen.steady_open(seed, "r50", 17500.0, 3000, sizes),
            first, deltas, again]


class SameSeedSameBytesTest(unittest.TestCase):
    def test_request_streams(self):
        for a, b in zip(streams(7), streams(7)):
            self.assertEqual(rendered(a), rendered(b))

    def test_grid_specs(self):
        self.assertEqual(gen.sweep_specs(7), gen.sweep_specs(7))

    def test_other_seeds_differ(self):
        self.assertNotEqual(rendered(streams(7)[1]), rendered(streams(8)[1]))
        self.assertNotEqual(rendered(streams(7)[2]), rendered(streams(8)[2]))
        self.assertNotEqual(rendered(streams(7)[3]), rendered(streams(8)[3]))
        self.assertNotEqual(gen.sweep_specs(7), gen.sweep_specs(8))


class SteadyMixTest(unittest.TestCase):
    def test_exact_miss_share_per_block(self):
        reqs = gen.steady_closed(3, "sat", 1000, gen.FreshSizes())
        hot = {(ctx, c, s) for ctx, c, s in gen._hot_keys()}
        miss = [(r.body["topology"], r.body["nodes"]) for r in reqs
                if ((r.body["topology"], r.body["nodes"]), r.body["collective"],
                    r.body["message_bytes"]) not in hot]
        self.assertEqual(len(miss), 30)

    def test_misses_are_fresh_and_weighted(self):
        reqs = gen.steady_closed(3, "sat", 31 * 100 * 10, gen.FreshSizes())
        hot = set(gen._hot_keys())
        misses = [r.body for r in reqs
                  if ((r.body["topology"], r.body["nodes"]), r.body["collective"],
                      r.body["message_bytes"]) not in hot]
        self.assertEqual(len(misses), 930)
        sizes = [m["message_bytes"] for m in misses]
        self.assertEqual(len(sizes), len(set(sizes)))
        seen = collections.Counter(((m["topology"], m["nodes"]), m["collective"])
                                   for m in misses)
        for ctx, coll, weight in gen.STEADY_MISS:  # 30 full decks of 31
            self.assertEqual(seen[(ctx, coll)], weight * 30)

    def test_phases_of_a_run_never_share_a_miss_size(self):
        # Even phases drawn from one seed (the worst case for a retried
        # open-loop phase) get sizes no earlier phase of the run used.
        sizes = gen.FreshSizes()
        hot = set(gen._hot_keys())
        seen = []
        for k in range(4):
            for r in gen.steady_open(9, "r%d" % k, 20000.0, 5000, sizes):
                b = r.body
                key = ((b["topology"], b["nodes"]), b["collective"], b["message_bytes"])
                if key not in hot:
                    seen.append(b["message_bytes"])
        self.assertEqual(len(seen), 4 * 150)
        self.assertEqual(len(seen), len(set(seen)))
        self.assertFalse(set(seen) & gen.FreshSizes.HOT_SIZES)

    def test_open_loop_schedule(self):
        reqs = gen.steady_open(5, "r50", 10000.0, 5000, gen.FreshSizes())
        due = [r.due_us for r in reqs]
        self.assertEqual(len(due), 5000)
        self.assertTrue(all(b > a for a, b in zip(due, due[1:])))
        # Poisson at 10k/s: 5000 arrivals take about half a second.
        self.assertAlmostEqual(due[-1] / 1e6, 0.5, delta=0.05)
        ids = [r.body["id"] for r in reqs]
        self.assertEqual(len(ids), len(set(ids)))

    def test_set_up_pins_each_context_to_one_connection(self):
        conns = collections.defaultdict(set)
        for r in gen.steady_setup():
            conns[(r.body["topology"], r.body["nodes"])].add(r.conn)
        self.assertTrue(all(len(c) == 1 for c in conns.values()))


class ColdSequenceTest(unittest.TestCase):
    def test_phases(self):
        first, deltas, again = gen.cold_sequence(11)
        self.assertEqual(len(deltas), len(gen.COLD_CONTEXTS))
        self.assertEqual([r.body["collective"] for r in first],
                         [r.body["collective"] for r in again])
        self.assertEqual([r.body["message_bytes"] for r in first],
                         [r.body["message_bytes"] for r in again])
        for r in first:
            key = ((r.body["topology"], r.body["nodes"]), r.body["collective"])
            self.assertNotIn(key, gen.COLD_EXCLUDED)
        for d in deltas:
            op = d.body["ops"][0]
            self.assertEqual((op["kind"], op["factor"]), ("scale_capacity", 0.5))
            self.assertNotEqual(op["src"], op["dst"])
        json.dumps([r.body for r in first + deltas + again])


if __name__ == "__main__":
    unittest.main()
