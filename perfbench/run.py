#!/usr/bin/env python3
"""The psd benchmark.

    python3 perfbench/run.py --workload serve_steady|serve_cold|sweep_grid|all
                             [--seed N] [--seconds S] [--trace 0|1] [--keep]

Builds psd (Release) into .bench_build on first use, runs the workload with
inputs generated from --seed, checks every answer, prints each metric with
its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the same
workload and then a traced replay, and reports the per-layer metrics.
Exit codes: 0 ok, 1 a correctness gate failed (result still printed),
2 no result (build failure, missing sources, rejected open loop).
Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from psdbench import build, layers, serve, sweep  # noqa: E402

WORKLOADS = {"serve_steady": serve.run_steady, "serve_cold": serve.run_cold,
             "sweep_grid": sweep.run_sweep}
# (name, unit): reported by every workload with --trace 0.
END_TO_END = [("setup_s", "s"), ("cpu_ms_per_op", "ms"), ("ok_share", "share"),
              ("peak_rss_mb", "MB")]


def run_one(workload, seed, seconds, trace, keep, bins):
    workdir = os.path.join(build.build_dir(), "runs",
                           "%s-s%d-p%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = serve.Runner(bins, workdir, seed, seconds, trace)
    try:
        e2e, per_layer = WORKLOADS[workload](runner)
    finally:
        runner.close()
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
    attempted = max(1, runner.sent)
    e2e["ok_share"] = (runner.sent - runner.failed) / attempted
    if trace:
        metrics = {n: {"value": v, "unit": layers.UNITS[n]}
                   for n, v in layers.finite(per_layer).items()}
    else:
        units = dict(END_TO_END)
        metrics = {n: {"value": e2e[n], "unit": units[n]} for n, _ in END_TO_END}

    ctx = build.machine_context(seed)
    ctx.update(workload=workload, seconds=seconds, trace=trace, codes=runner.codes,
               **runner.context)
    print("context " + json.dumps(ctx, sort_keys=True))
    samples = runner.context.get("samples", {})
    for name, m in metrics.items():
        n = samples.get("latency" if name.startswith("bench.latency") else name, "")
        print("%-14s %-30s %16.6g %-6s %s" % (workload, name, m["value"], m["unit"],
                                              "n=%s" % n if n != "" else ""))
    for gate, fails in sorted(runner.gates.items()):
        print("GATE FAILED %s: %d, e.g. %s" % (gate, len(fails), fails[0]),
              file=sys.stderr)
    return {"correct": not runner.gates, "attempted": attempted,
            "failed": runner.failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep", action="store_true", help="keep the run's files")
    args = ap.parse_args()
    try:
        bins = build.ensure_built()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_one(w, args.seed, args.seconds, args.trace, args.keep, bins)
                   for w in names}
    except build.BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s/%s" % (w, n): m for w, r in results.items()
                              for n, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
