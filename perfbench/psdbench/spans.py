"""Span rollup for traced runs.

``psd_bench`` writes one span per call into a psd layer as
``index parent request name start_ns end_ns`` lines. A span's self time is
its duration minus the part of its interval covered by its children (the
union of their intervals, clipped to the parent), so nested layers are
never counted twice and the self times of a tree sum to its root's
duration.
"""

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    index: int
    parent: int
    request: int
    name: str
    start_ns: int
    end_ns: int
    children: list = field(default_factory=list)

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


def parse(lines):
    """Spans by index from the recorder's lines; children linked."""
    spans = {}
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        idx, parent, req, name, start, end = line.split("\t")
        spans[int(idx)] = Span(int(idx), int(parent), int(req), name,
                               int(start), int(end))
    for s in spans.values():
        if s.parent in spans:
            spans[s.parent].children.append(s)
    return spans


def read(path):
    with open(path) as f:
        return parse(f)


def covered_ns(start, end, intervals):
    """Length of the union of ``intervals`` clipped to [start, end)."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_ns(span):
    return span.duration_ns - covered_ns(
        span.start_ns, span.end_ns, [(c.start_ns, c.end_ns) for c in span.children])


def rollup(spans, keep=None):
    """{name: {'self_ns': [...], 'dur_ns': [...]}} over spans for which
    ``keep(span)`` holds (all when None)."""
    out = defaultdict(lambda: {"self_ns": [], "dur_ns": []})
    for s in spans.values():
        if keep is not None and not keep(s):
            continue
        out[s.name]["self_ns"].append(self_ns(s))
        out[s.name]["dur_ns"].append(s.duration_ns)
    return out


def children_sum_ns(span):
    """Summed durations of a span's direct children: the time its layer
    calls account for, against which the span's own measure reconciles."""
    return sum(c.duration_ns for c in span.children)
