"""Seeded input generators for the three workloads.

Every function here is a pure function of its arguments: the same seed
gives byte-identical request streams and grid specs (pinned by
tests/test_gen.py). The programs under test only ever see what these
functions write.

A request stream is a list of ``Req``; ``write_stream`` renders it as the
``<due_us>\\t<conn>\\t<tag>\\t<json>`` lines that ``psd_bench load`` and
``psd_bench replay`` read.
"""

import json
import random
from dataclasses import dataclass

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class Req:
    due_us: float  # open loop: send time from phase start; closed loop: 0
    conn: int  # pinned connection, or -1 for any
    tag: str  # phase name
    body: dict  # the protocol object


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def write_stream(path, reqs):
    with open(path, "w") as f:
        for r in reqs:
            f.write("%.3f\t%d\t%s\t%s\n" % (r.due_us, r.conn, r.tag, dumps(r.body)))


def plan(rid, ctx, collective, size, deadline_ms=0.0):
    topology, nodes = ctx
    body = {"op": "plan", "id": rid, "topology": topology, "nodes": nodes,
            "collective": collective, "message_bytes": size}
    if deadline_ms > 0:
        body["deadline_ms"] = deadline_ms
    return body


# ---- serve_steady -------------------------------------------------------

STEADY_CONTEXTS = [("ring", 64), ("ring", 256), ("bidir-ring", 64),
                   ("hypercube", 16), ("hypercube", 32), ("hypercube", 64),
                   ("torus8x8", 64)]

# The hot key set: every context x these (collective, size) pairs. All are
# planned during set-up, so in the timed phase they are memo hits. Auto
# selection on hypercube 64 is left out: its θ alone takes seconds.
STEADY_HOT = [("allreduce:auto", 256 * KIB), ("allreduce:auto", 16 * MIB),
              ("allreduce:hd", 64 * KIB), ("allreduce:hd", 4 * MIB),
              ("allgather", 1 * MIB)]
STEADY_NO_AUTO = {("hypercube", 64)}

# Set-up connection of each context: each context's θ is solved on one
# connection (no duplicate racing solves), balanced by seed-commit cost.
STEADY_SETUP_CONN = {("hypercube", 64): 0, ("hypercube", 32): 0,
                     ("hypercube", 16): 0, ("ring", 64): 0,
                     ("torus8x8", 64): 1, ("bidir-ring", 64): 1,
                     ("ring", 256): 1}

# Memo-miss classes: (context, collective, weight). Each miss asks for a
# message size no earlier request used, on a context whose θ the set-up
# already solved for every matching the class needs, so a miss costs
# workload + collective + core work and no θ solve. Auto selection on
# ring 256 (about 30 ms a miss at the seed commit) stays in the hot set
# only: as a miss, two of them at once hold both workers, and whether that
# happens decided the p99.
STEADY_MISS = [
    (("ring", 256), "allreduce:hd", 2),
    (("ring", 64), "allreduce:auto", 3),
    (("ring", 64), "allreduce:ring", 3),
    (("bidir-ring", 64), "allreduce:swing", 3),
    (("hypercube", 16), "allreduce:auto", 4),
    (("hypercube", 32), "allreduce:auto", 4),
    (("hypercube", 64), "allreduce:hd", 4),
    (("hypercube", 64), "allgather", 4),
    (("torus8x8", 64), "allreduce:auto", 4),
]


def _hot_keys():
    return [(ctx, c, s) for ctx in STEADY_CONTEXTS for c, s in STEADY_HOT
            if not (ctx in STEADY_NO_AUTO and c == "allreduce:auto")]


DEADLINE_MS = 5000.0  # generous: the urgent lane is used, nothing expires
STEADY_MISS_SHARE = 0.03  # exactly 3 misses in every block of 100 requests
STEADY_DEADLINE_SHARE = 0.1  # requests that carry DEADLINE_MS


class FreshSizes:
    """Message sizes for memo misses: one cursor per run, shared by every
    phase in order, so no two misses of a run share a solve key (a rejected
    open-loop attempt and its retry included) however long the phases are.
    Sizes stay above 1 MiB, past the selector's small-message line (one
    regime for every seed), and skip the hot set's sizes."""

    HOT_SIZES = frozenset(s for _, s in STEADY_HOT)

    def __init__(self):
        self.next = MIB + 1

    def take(self, rng):
        size = self.next
        while size in self.HOT_SIZES:
            size += 1
        self.next = size + 1 + rng.randrange(64)
        return size


def steady_setup():
    """Set-up requests: the hot set, then one plan per miss class (which
    solves that class's θ), each context on its own connection."""
    keys = [(ctx, c, s) for ctx, c, s in _hot_keys()]
    keys += [(ctx, coll, 512 * KIB) for ctx, coll, _ in STEADY_MISS]
    return [Req(0.0, STEADY_SETUP_CONN[ctx], "setup", plan("w%d" % i, ctx, c, s))
            for i, (ctx, c, s) in enumerate(keys)]


class _SteadyMix:
    """Draws the timed mix: hot-key hits and fresh-size misses. The mix is
    stratified so the work in a stream does not depend on the seed: every
    block of MIX_BLOCK requests holds exactly STEADY_MISS_SHARE x MIX_BLOCK
    misses at seeded positions, and miss classes are dealt from seeded
    shuffles of the weighted class list, so each class keeps its weight."""

    MIX_BLOCK = 100

    def __init__(self, seed, sizes):
        self.rng = random.Random(seed)
        self.misses_per_block = round(STEADY_MISS_SHARE * self.MIX_BLOCK)
        self.hot = _hot_keys()
        self.classes = [(ctx, coll) for ctx, coll, weight in STEADY_MISS
                        for _ in range(weight)]
        self.block, self.deck = [], []
        self.sizes = sizes

    def draw(self, rid):
        rng = self.rng
        if not self.block:
            self.block = [False] * self.MIX_BLOCK
            for k in rng.sample(range(self.MIX_BLOCK), self.misses_per_block):
                self.block[k] = True
        miss = self.block.pop()
        deadline = DEADLINE_MS if rng.random() < STEADY_DEADLINE_SHARE else 0.0
        if miss:
            if not self.deck:
                self.deck = list(self.classes)
                rng.shuffle(self.deck)
            ctx, coll = self.deck.pop()
            return plan(rid, ctx, coll, self.sizes.take(rng), deadline)
        ctx, coll, size = self.hot[rng.randrange(len(self.hot))]
        return plan(rid, ctx, coll, size, deadline)


def steady_closed(seed, tag, count, sizes):
    mix = _SteadyMix(seed, sizes)
    return [Req(0.0, -1, tag, mix.draw("%s%d" % (tag, i))) for i in range(count)]


def steady_open(seed, tag, rate, count, sizes):
    """``count`` Poisson arrivals at ``rate`` per second."""
    mix = _SteadyMix(seed, sizes)
    gaps = random.Random(seed ^ 0x5EED)
    t = 0.0
    out = []
    for i in range(count):
        t += gaps.expovariate(rate) * 1e6
        out.append(Req(t, -1, tag, mix.draw("%s%d" % (tag, i))))
    return out


# ---- serve_cold ---------------------------------------------------------

COLD_CONTEXTS = [("hypercube", 16), ("hypercube", 32), ("hypercube", 64),
                 ("torus4x4", 16), ("torus8x8", 64), ("bidir-ring", 64),
                 ("mesh", 16)]
COLD_COLLECTIVES = ["allreduce:rd", "allreduce:hd", "allreduce:swing",
                    "alltoall", "allgather", "allreduce:auto"]
# Pairs whose one cold plan takes seconds at the seed commit: left out so a
# run holds several repetitions.
COLD_EXCLUDED = {(("hypercube", 64), "alltoall"), (("hypercube", 64), "allreduce:auto"),
                 (("hypercube", 32), "alltoall"),
                 (("torus8x8", 64), "alltoall"), (("bidir-ring", 64), "alltoall"),
                 (("mesh", 16), "alltoall")}
# Connection each context's requests ride on (no two connections race on
# one context's θ), balanced by seed-commit cost.
COLD_CONN = {("hypercube", 64): 0, ("hypercube", 16): 0, ("torus4x4", 16): 0,
             ("mesh", 16): 0, ("hypercube", 32): 1, ("torus8x8", 64): 1,
             ("bidir-ring", 64): 1}


def _edge(ctx, rng):
    """A link of ``ctx`` picked by ``rng`` (an existing directed edge)."""
    topology, n = ctx
    if topology == "hypercube":
        src = rng.randrange(n)
        return src, src ^ (1 << rng.randrange(n.bit_length() - 1))
    if topology.startswith("torus"):
        rows, cols = (int(x) for x in topology[5:].split("x"))
        r, c = rng.randrange(rows), rng.randrange(cols)
        if rng.random() < 0.5:
            return r * cols + c, r * cols + (c + 1) % cols
        return r * cols + c, ((r + 1) % rows) * cols + c
    if topology == "bidir-ring":
        src = rng.randrange(n)
        return src, (src + 1) % n
    if topology == "mesh":
        src = rng.randrange(n)
        return src, (src + 1 + rng.randrange(n - 1)) % n
    raise ValueError(topology)


def cold_sequence(seed):
    """The three phases of one serve_cold repetition: first-contact plans,
    one restricting delta per context, then the same plans again. The seed
    picks message sizes and the scaled links."""
    rng = random.Random(seed)
    first, deltas, again = [], [], []
    for ctx in COLD_CONTEXTS:
        # A fixed order per context: which request of a context pays for
        # θ solves it shares with another is then the same for every seed.
        colls = [c for c in COLD_COLLECTIVES if (ctx, c) not in COLD_EXCLUDED]
        for coll in colls:
            size = (64 + rng.randrange(64 * 1024)) * KIB
            conn = COLD_CONN[ctx]
            first.append(Req(0.0, conn, "first", plan("f%d" % len(first), ctx, coll, size)))
            again.append(Req(0.0, conn, "again", plan("a%d" % len(again), ctx, coll, size)))
        src, dst = _edge(ctx, rng)
        deltas.append(Req(0.0, 0, "delta", {
            "op": "delta", "id": "d%d" % len(deltas), "topology": ctx[0],
            "nodes": ctx[1],
            "ops": [{"kind": "scale_capacity", "src": src, "dst": dst, "factor": 0.5}]}))
    return first, deltas, again


# ---- sweep_grid ---------------------------------------------------------

def sweep_specs(seed):
    """(churn_free_spec, churn_spec) grid texts for psd_sweep. The seed
    picks message sizes, reconfiguration delays and fault streams; the
    (topology, collective) pairs, and so the θ work, are fixed. At the seed
    commit each grid carries over a third of the serial work."""
    rng = random.Random(seed)
    sizes = sorted(rng.sample([64, 128, 256, 512, 1024, 2048, 4096, 8192], 3))
    alpha_r = sorted(rng.sample([1000, 2000, 5000, 10000, 20000, 50000], 2))
    churn_seeds = sorted(rng.sample(range(1, 1000), 2))
    churn_free = "\n".join([
        "# sweep_grid churn-free grid (seed %d)" % seed,
        "topology = hypercube, torus, bidir-ring",
        "nodes = 16, 32",
        "collective = allreduce:rd, allreduce:hd, allreduce:swing, allreduce:auto, allgather",
        "size = " + ", ".join("%dKiB" % s for s in sizes),
        "alpha_r_ns = %d, %d" % tuple(alpha_r),
        ""])
    churn = "\n".join([
        "# sweep_grid churn grid (seed %d)" % seed,
        "topology = hypercube, torus",
        "nodes = 16",
        "collective = allreduce:rd, allreduce:hd, allreduce:swing",
        "size = %dKiB" % sizes[1],
        "alpha_r_ns = %d" % alpha_r[0],
        "drops = 1",
        "droop = 0.5",
        "seed = %d, %d" % tuple(churn_seeds),
        ""])
    return churn_free, churn
