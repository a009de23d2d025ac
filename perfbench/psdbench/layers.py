"""Per-layer metrics from traced runs.

PER_LAYER names every metric a traced run reports, for every workload; a
layer a workload does not exercise reports 0 (which is the point: the
serve layer does nothing in sweep_grid, flow nothing in serve_steady's
timed phase). The layer -> end-to-end table these are meant to explain is
in perfbench/README.md.
"""

import math
import os

from . import spans as spanlib
from . import stats
from .answers import answer_of

# (name, unit, better)
PER_LAYER = [
    ("serve.transport_us.p50", "us", "lower"),
    ("serve.submit_us.p50", "us", "lower"),
    ("serve.submit_us.p99", "us", "lower"),
    ("serve.parse_us.p50", "us", "lower"),
    ("serve.emit_us.p50", "us", "lower"),
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.queue_wait_ms.p99", "ms", "lower"),
    ("serve.solve_ms.p50", "ms", "lower"),
    ("serve.solve_ms.p99", "ms", "lower"),
    ("serve.journal_append_us.p50", "us", "lower"),
    ("serve.journal_append_us.p99", "us", "lower"),
    ("serve.delta_ms.p50", "ms", "lower"),
    ("serve.memo_hit_rate", "share", "higher"),
    ("serve.coalesced", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.degraded", "count", "lower"),
    ("serve.deadline_exceeded", "count", "lower"),
    ("serve.replans", "count", "lower"),
    ("serve.journal_compactions", "count", "lower"),
    ("workload.materialize_us.p50", "us", "lower"),
    ("workload.materialize_calls", "count", "lower"),
    ("collective.steps", "count", "lower"),
    ("core.select_ms.p50", "ms", "lower"),
    ("core.select_calls", "count", "lower"),
    ("core.instance_us.p50", "us", "lower"),
    ("core.dp_us.p50", "us", "lower"),
    ("core.baselines_us.p50", "us", "lower"),
    ("core.pipelined_us.p50", "us", "lower"),
    ("flow.theta_calls", "count", "lower"),
    ("flow.theta_hit_rate", "share", "higher"),
    ("flow.theta_solves.ring", "count", "lower"),
    ("flow.theta_solves.lp", "count", "lower"),
    ("flow.theta_solves.gk", "count", "lower"),
    ("flow.theta_solve_ms.ring", "ms", "lower"),
    ("flow.theta_solve_ms.lp", "ms", "lower"),
    ("flow.theta_solve_ms.gk", "ms", "lower"),
    ("flow.gk_pushes", "count", "lower"),
    ("flow.gk_searches", "count", "lower"),
    ("flow.theta_useful_share", "share", "higher"),
    ("flow.carry_share", "share", "higher"),
    ("topo.build_ms.sum", "ms", "lower"),
    ("topo.base_hops_ms.sum", "ms", "lower"),
    ("topo.apply_delta_us.p50", "us", "lower"),
    ("sim.churn_ms.sum", "ms", "lower"),
    ("sim.churn_ms.p50", "ms", "lower"),
    ("sim.replan_solves", "count", "lower"),
    ("sim.gk_pushes", "count", "lower"),
    ("sim.gk_searches", "count", "lower"),
    ("sweep.job_ms.sum", "ms", "lower"),
    ("sweep.job_ms.p50", "ms", "lower"),
    ("sweep.job_ms.max", "ms", "lower"),
    ("sweep.pool_efficiency", "share", "higher"),
    ("sweep.critical_share", "share", "lower"),
    ("sweep.cache_hit_rate", "share", "higher"),
    ("sweep.lock_contentions", "count", "lower"),
    ("bench.gen_late_ms.p99", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.reconcile_err", "share", "lower"),
    ("bench.flow_solve_share", "share", "lower"),
    ("bench.churn_job_share", "share", "lower"),
    ("bench.slo_rate_ops_s", "1/s", "higher"),
    ("bench.r50_latency_p50_ms", "ms", "lower"),
    ("bench.r50_latency_p99_ms", "ms", "lower"),
    ("bench.r80_latency_p50_ms", "ms", "lower"),
    ("bench.r80_latency_p99_ms", "ms", "lower"),
    ("bench.ladder_steps", "count", "higher"),
    ("bench.throughput_ops_s", "1/s", "higher"),
    ("bench.rtt_p50_ms", "ms", "lower"),
    ("bench.latency_mean_ms", "ms", "lower"),
    ("bench.latency_tail_ms", "ms", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Spans of θ lookups that solved (cache hits are "flow.theta.hit").
FLOW_SOLVES = ("flow.theta.ring", "flow.theta.lp", "flow.theta.gk")

# Largest bench.reconcile_err a serve replay may show (gate "reconcile");
# observed 0.03-0.09 on the reference VM.
RECONCILE_TOLERANCE = 0.25


def empty():
    return {name: 0.0 for name, _, _ in PER_LAYER}


def _p(values, level, scale):
    v = stats.percentile(values, level)
    return 0.0 if v is None else v / scale


def flow_and_core(runner, out, roll, counters):
    """The layer metrics every traced replay shares: workload, collective,
    core, flow and topo, from span rollups and replay counters. Gates that
    each θ solve was booked to the solver that actually ran."""
    if counters.get("theta_label_mismatches", 0):
        runner.fail("theta_label", "%d θ solves booked to the wrong solver"
                    % counters["theta_label_mismatches"])
    dur = lambda name: roll[name]["dur_ns"] if name in roll else []
    self_ = lambda name: roll[name]["self_ns"] if name in roll else []
    out["workload.materialize_us.p50"] = _p(dur("workload.materialize"), 50, 1e3)
    out["workload.materialize_calls"] = counters.get("materialize_calls", 0)
    out["collective.steps"] = counters.get("steps", 0)
    out["core.select_ms.p50"] = _p(self_("core.select"), 50, 1e6)
    out["core.select_calls"] = counters.get("select_calls", 0)
    out["core.instance_us.p50"] = _p(self_("core.instance"), 50, 1e3)
    out["core.dp_us.p50"] = _p(dur("core.dp"), 50, 1e3)
    out["core.baselines_us.p50"] = _p(dur("core.baselines"), 50, 1e3)
    out["core.pipelined_us.p50"] = _p(dur("core.pipelined"), 50, 1e3)
    hits = len(dur("flow.theta.hit"))
    solves = {k: dur("flow.theta." + k) for k in ("ring", "lp", "gk")}
    calls = hits + sum(len(v) for v in solves.values())
    out["flow.theta_calls"] = calls
    out["flow.theta_hit_rate"] = hits / calls if calls else 0.0
    for k, v in solves.items():
        out["flow.theta_solves." + k] = len(v)
        out["flow.theta_solve_ms." + k] = sum(v) / 1e6
    out["flow.gk_pushes"] = counters.get("gk_pushes", 0)
    out["flow.gk_searches"] = counters.get("gk_searches", 0)
    out["topo.base_hops_ms.sum"] = sum(dur("topo.base_hops")) / 1e6
    out["topo.apply_delta_us.p50"] = _p(dur("topo.apply_delta"), 50, 1e3)


def serve_layers(runner, stream, count_from, daemon_stats, socket_hits, delta_recs,
                 late):
    """Replays ``stream`` in process twice (tracing off, then on) and rolls
    the traced run up. Requests before ``count_from`` (set-up) feed only
    topo.build_ms.sum; every other replay metric covers the rest. The
    serve.* counters are ``daemon_stats`` as the caller took them."""
    base = ["--inproc", "--count-from", str(count_from)]
    off_dir, on_dir = runner.path("journal_off"), runner.path("journal_on")
    os.makedirs(off_dir, exist_ok=True)
    os.makedirs(on_dir, exist_ok=True)
    _, wall_off, _ = runner.replay(stream, "trace_off", base + ["--journal-dir", off_dir])
    span_path = runner.path("spans.tsv")
    recs, wall_on, counters = runner.replay(
        stream, "trace_on", base + ["--journal-dir", on_dir, "--spans", span_path])
    spans = spanlib.read(span_path)

    # In-process answers are gated like the daemon's.
    for rec, q in zip(recs, stream):
        resp = rec.get("inproc", {}).get("response", {})
        if resp.get("code", "OK") != "OK" and q.body["op"] == "plan":
            runner.fail("inproc_ok", "#%d: %s" % (rec["i"], resp.get("code")))
        elif "optimal_ns" in resp and rec.get("answer") is not None:
            if answer_of(resp) != rec["answer"]:
                runner.fail("inproc_equals_replay", "#%d" % rec["i"])

    timed = lambda s: s.request >= count_from
    roll = spanlib.rollup(spans, timed)
    out = empty()
    flow_and_core(runner, out, roll, counters["replay"])
    out["topo.build_ms.sum"] = sum(
        s.duration_ns for s in spans.values() if s.name == "topo.build") / 1e6

    timed_recs = [r for r in recs if r["i"] >= count_from]
    hits = [r["inproc"] for r in timed_recs
            if r.get("kind") == "hit" and r["inproc"]["response"].get("cached")]
    solved = [r["inproc"] for r in timed_recs
              if r.get("kind") == "miss" and not r["inproc"]["response"].get("cached")
              and r["inproc"]["response"].get("code") == "OK"]
    sock_hit_us = [(r.recv_ns - r.sent_ns) / 1e3 for r in socket_hits]
    inproc_hit_us = [h["e2e_ns"] / 1e3 for h in hits]
    if sock_hit_us and inproc_hit_us:
        out["serve.transport_us.p50"] = (stats.percentile(sock_hit_us, 50)
                                         - stats.percentile(inproc_hit_us, 50))
    out["serve.submit_us.p50"] = _p([h["submit_ns"] for h in hits], 50, 1e3)
    out["serve.submit_us.p99"] = _p([h["submit_ns"] for h in hits], 99, 1e3)
    dur = lambda name: roll[name]["dur_ns"] if name in roll else []
    out["serve.parse_us.p50"] = _p(dur("serve.parse"), 50, 1e3)
    out["serve.emit_us.p50"] = _p(dur("serve.emit"), 50, 1e3)
    waits = [s["e2e_ns"] / 1e6 - s["response"]["plan_latency_ms"] for s in solved]
    out["serve.queue_wait_ms.p50"] = _p(waits, 50, 1)
    out["serve.queue_wait_ms.p99"] = _p(waits, 99, 1)
    solve_ms = [s["response"]["plan_latency_ms"] for s in solved]
    out["serve.solve_ms.p50"] = _p(solve_ms, 50, 1)
    out["serve.solve_ms.p99"] = _p(solve_ms, 99, 1)
    out["serve.journal_append_us.p50"] = _p(dur("serve.journal_append"), 50, 1e3)
    out["serve.journal_append_us.p99"] = _p(dur("serve.journal_append"), 99, 1e3)
    out["serve.delta_ms.p50"] = _p(dur("serve.delta"), 50, 1e6)
    out["serve.memo_hit_rate"] = daemon_stats.get("memo_hit_rate", 0.0)
    for k in ("coalesced", "shed", "degraded", "deadline_exceeded", "replans",
              "journal_compactions"):
        out["serve." + k] = daemon_stats.get(k, 0)

    cache = counters["theta_cache"]
    out["flow.theta_useful_share"] = (cache["insertions"] / cache["misses"]
                                      if cache["misses"] else 0.0)
    examined = sum(r.examined for r in delta_recs)
    out["flow.carry_share"] = (sum(r.carried for r in delta_recs) / examined
                               if examined else 0.0)

    # Reconciliation: the solved requests' layer spans against the
    # in-process service's own measure of the same solves (plan_latency_ms).
    # The two are separate executions, so single sub-millisecond requests
    # differ by scheduling noise; the gap is taken over their sums.
    by_req = {s.request: s for s in spans.values() if s.name == "serve.solve"}
    span_ms = lat_ms = 0.0
    flow_ns = solve_ns = 0
    for r in timed_recs:
        resp = r.get("inproc", {}).get("response", {})
        span = by_req.get(r["i"])
        if span is None or resp.get("cached") or resp.get("coalesced"):
            continue
        span_ms += spanlib.children_sum_ns(span) / 1e6
        lat_ms += resp.get("plan_latency_ms", 0.0)
    for s in spans.values():
        if not timed(s):
            continue
        if s.name == "serve.solve":
            solve_ns += s.duration_ns
        elif s.name in FLOW_SOLVES:
            flow_ns += s.duration_ns
    out["bench.reconcile_err"] = abs(span_ms - lat_ms) / lat_ms if lat_ms else 0.0
    if out["bench.reconcile_err"] > RECONCILE_TOLERANCE:
        runner.fail("reconcile", "layer spans and plan_latency_ms differ by %.3f "
                    "(tolerance %.2f)" % (out["bench.reconcile_err"], RECONCILE_TOLERANCE))
    out["bench.flow_solve_share"] = flow_ns / solve_ns if solve_ns else 0.0
    out["bench.trace_overhead"] = wall_on / wall_off
    out["bench.gen_late_ms.p99"] = _p(late, 99, 1)
    return out


def finite(metrics):
    """Replaces non-finite values (an empty phase's inf latency) by -1 so
    the result stays valid JSON."""
    return {k: (v if isinstance(v, (int, float)) and math.isfinite(v) else -1.0)
            for k, v in metrics.items()}
