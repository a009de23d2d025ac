"""Percentiles with their sample counts.

A timing is reported as its median and its tail: the highest percentile
of the given levels that has at least ``MIN_BEYOND`` samples beyond it, so
a p99 is only claimed from 1000 samples up. Every summary carries its
sample count. Failed requests enter latency samples as ``math.inf``: they
miss every latency limit.

The closed-loop tail (``bench.latency_tail_ms``) stops at p90
(``CLOSED_LOOP_LEVELS``): on the 4-vCPU reference VM every core loses
the CPU for 1-10 ms several times a second (a busy-loop probe saw up to
15 gaps over 1 ms per core in 3 s), and those host stalls, not the
program, decide the top percent of requests. The open-loop phases still
report p99.
"""

import math

TAIL_LEVELS = (99.0, 90.0, 50.0)
CLOSED_LOOP_LEVELS = (90.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile of ``values`` (any order); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_level(n, levels=TAIL_LEVELS):
    """The highest of ``levels`` with MIN_BEYOND samples beyond it out of
    ``n``, or None when even the median is unsupported."""
    for level in levels:
        if n * (1.0 - level / 100.0) >= MIN_BEYOND - 1e-9:
            return level
    return None


def summarize(values, levels=TAIL_LEVELS):
    """{'n', 'mean', 'p50', 'tail_level', 'tail'} for a list of samples.
    Fewer than 20 samples support no level, not even the median; the tail
    is then the median (level 50): no tail is claimed from a handful."""
    n = len(values)
    level = tail_level(n, levels)
    if level is None:
        level = 50.0
    return {"n": n, "mean": sum(values) / n if n else None,
            "p50": percentile(values, 50.0), "tail_level": level,
            "tail": percentile(values, level)}


def rate(times_ns):
    """Completions per second between the first and last of ``times_ns``."""
    if len(times_ns) < 2:
        return 0.0
    return (len(times_ns) - 1) / ((max(times_ns) - min(times_ns)) / 1e9)


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def lateness(records):
    """Send lateness in ms of open-loop records (sent - due), sent ones only."""
    return [(r.sent_ns - r.due_ns) / 1e6 for r in records if r.sent_ns >= 0]


def backlog_grows(records, limit_ms):
    """True when an open-loop phase ended with a backlog: its last answer
    came more than ``limit_ms`` after its last due time, or some request
    was never answered."""
    if any(r.recv_ns < 0 for r in records):
        return True
    last_due = max(r.due_ns for r in records)
    last_recv = max(r.recv_ns for r in records)
    return (last_recv - last_due) / 1e6 > limit_ms
