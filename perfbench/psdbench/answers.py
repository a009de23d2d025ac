"""Plan answers: the fields compared between the daemon and the replay,
and the DP invariants every answer must satisfy."""

ANSWER_FIELDS = ("steps", "optimal_ns", "static_ns", "naive_bvn_ns", "greedy_ns",
                 "reconfigurations", "speedup_vs_static", "speedup_vs_bvn",
                 "pipelined_ns", "pipeline_chunks", "chosen_algo")


def answer_of(resp):
    """The comparable answer of a plan response: every field, compared to
    the last bit (the daemon and the replay run the same deterministic
    solves, after deltas too)."""
    return tuple(resp.get(k) for k in ANSWER_FIELDS)


def dp_violations(answer):
    """Eq. 7 DP optimality: optimal <= every baseline, pipelined <= optimal."""
    a = dict(zip(ANSWER_FIELDS, answer))
    slack = 1e-9 * a["optimal_ns"]
    out = ["optimal %r > %s %r" % (a["optimal_ns"], base, a[base])
           for base in ("static_ns", "naive_bvn_ns", "greedy_ns")
           if a["optimal_ns"] > a[base] + slack]
    if a["pipelined_ns"] > a["optimal_ns"] + slack:
        out.append("pipelined %r > optimal %r" % (a["pipelined_ns"], a["optimal_ns"]))
    return out
