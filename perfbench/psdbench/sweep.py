"""sweep_grid: psd_sweep on two seeded grid specs back to back, checked
against a serial pass, and (traced) planned scenario by scenario."""

import json
import os
import subprocess
import sys
import time

from . import gen, layers, stats
from . import spans as spanlib
from .build import ROOT, BenchError
from .serve import vm_hwm_mb

TINY_SPEC = "topology = ring\nnodes = 8\ncollective = allreduce:ring\nsize = 1MiB\n"
SETUP_REPEATS = 25  # one-scenario psd_sweep runs; setup_s is their median
PASSES = 8  # passes over both grids per 10 s of --seconds
# psd_sweep's pool size: two threads, like the daemon's two workers. With
# four on the 4-vCPU reference host (the benchmark's own process beside
# them) a pass measured the host's scheduler: its wall time spread 31 %
# over ten runs of the same code. Two are as fast as four there (1.6 s a
# pass): the racing θ misses that make extra threads re-solve cost the rest.
THREADS = 2


def _timed(cmd, sample_rss=False):
    """Runs ``cmd``; returns (wall seconds, CPU seconds, peak RSS MB). CPU
    is user + system time of the process and its threads from wait4 (host
    steal time is not in it). With sample_rss the process's VmHWM is read
    every 10 ms while it runs (the last read is the peak up to then);
    otherwise the peak is not measured (0)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    peak = 0.0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG if sample_rss else 0)
        if pid:
            break
        peak = max(peak, vm_hwm_mb(proc.pid))
        time.sleep(0.01)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return wall, usage.ru_utime + usage.ru_stime, peak


def run_sweep(runner):
    bins = runner.bins
    grids = dict(zip(("free", "churn"), gen.sweep_specs(runner.seed)))
    for name, text in grids.items():
        with open(runner.path(name + ".grid"), "w") as f:
            f.write(text)
    with open(runner.path("tiny.grid"), "w") as f:
        f.write(TINY_SPEC)

    # Set-up: what one psd_sweep invocation costs before any grid work
    # (process start, spec parse, one topology built and planned).
    setups = [_timed([bins["sweep"], "--spec", runner.path("tiny.grid"), "--quiet",
                      "--out-csv", runner.path("tiny.csv")])[1]
              for _ in range(SETUP_REPEATS)]

    passes = max(1, round(PASSES * runner.seconds / 10.0))
    walls, cpus, rss, rows, caches = [], [], [], 0, []
    csvs = {name: [] for name in grids}
    for p in range(passes):
        wall_total, cpu_total, peak = 0.0, 0.0, 0.0
        for name in grids:
            out_json = runner.path("%s%d.json" % (name, p))
            out_csv = runner.path("%s%d.csv" % (name, p))
            wall, cpu, mb = _timed([bins["sweep"], "--spec", runner.path(name + ".grid"),
                                    "--quiet", "--threads", str(THREADS), "--out-json",
                                    out_json, "--out-csv", out_csv], sample_rss=True)
            wall_total += wall
            cpu_total += cpu
            peak = max(peak, mb)
            csvs[name].append(out_csv)
        walls.append(wall_total)
        cpus.append(cpu_total)
        rss.append(peak)

    # Gates: psd_sweep's own report checker on every pass, error rows,
    # and every CSV byte-identical to the serial pass.
    scenarios, failed = 0, 0
    serial_walls = {}
    for name in grids:
        ref_csv = runner.path(name + ".serial.csv")
        t0 = time.perf_counter()
        if subprocess.run([bins["bench"], "sweep", "--spec", runner.path(name + ".grid"),
                           "--csv", ref_csv]).returncode != 0:
            runner.fail("serial_pass", name)
        serial_walls[name] = time.perf_counter() - t0
        with open(ref_csv, "rb") as f:
            ref = f.read()
        for p, path in enumerate(csvs[name]):
            with open(path, "rb") as f:
                if f.read() != ref:
                    runner.fail("csv_equals_serial", "%s pass %d" % (name, p))
            json_path = path[:-4] + ".json"
            check = subprocess.run([sys.executable,
                                    os.path.join(ROOT, "tools", "check_sweep_report.py"),
                                    json_path, path], capture_output=True, text=True)
            if check.returncode != 0:
                runner.fail("check_sweep_report", "%s pass %d: %s"
                            % (name, p, check.stdout.strip()[-300:]))
            with open(json_path) as f:
                report = json.load(f)
            errors = sum(1 for r in report["rows"] if "error" in r)
            scenarios += len(report["rows"])
            failed += errors
            runner.phases["%s%d" % (name, p)] = {
                "sent": len(report["rows"]), "ok": len(report["rows"]) - errors,
                "failed": {"error_row": errors} if errors else {}}
            if errors:
                runner.fail("sweep_error_rows", "%s pass %d: %d" % (name, p, errors))
            if p == 0:
                caches.append(report["cache"])
        rows += _row_count(ref)
    runner.sent, runner.failed = scenarios, failed

    per_pass = rows  # scenarios in one pass (both grids)
    pass_ms = [w * 1e3 for w in walls]
    lat = stats.summarize(pass_ms)
    runner.context["samples"] = {"cpu_ms_per_op": passes, "latency": lat["n"],
                                 "setup_s": len(setups), "tail_level": lat["tail_level"],
                                 "scenarios_per_pass": per_pass}
    wall = {"bench.throughput_ops_s": stats.median([per_pass / w for w in walls]),
            "bench.latency_mean_ms": lat["mean"], "bench.latency_tail_ms": lat["tail"]}
    runner.context.update(wall)
    runner.context["pass_cpu_ms_per_op"] = [c * 1e3 / per_pass for c in cpus]
    e2e = {"setup_s": stats.median(setups),
           "cpu_ms_per_op": stats.median(runner.context["pass_cpu_ms_per_op"]),
           # The peak over every pass: glibc's per-thread malloc arenas can
           # put one pass's peak near either of two levels (16 or 18.5 MB on
           # four threads at the seed commit), so a median over passes could
           # flip between them.
           "peak_rss_mb": max(rss)}
    if not runner.trace:
        return e2e, None
    per_layer = _sweep_layers(runner, grids, stats.median(walls), serial_walls, caches)
    per_layer.update(wall)
    return e2e, per_layer


def _row_count(csv_bytes):
    return max(0, csv_bytes.count(b"\n") - 1)


def _sweep_layers(runner, grids, parallel_wall, serial_walls, caches):
    out = layers.empty()
    spans, counters = {}, {}
    job_ns = {}
    for name in grids:
        span_path = runner.path(name + ".spans.tsv")
        ctr_path = runner.path(name + ".counters")
        if subprocess.run([runner.bins["bench"], "sweep", "--spec",
                           runner.path(name + ".grid"), "--csv",
                           runner.path(name + ".traced.csv"), "--spans", span_path,
                           "--replay", "--counters", ctr_path]).returncode != 0:
            runner.fail("serial_pass", name + " (traced)")
        with open(runner.path(name + ".traced.csv"), "rb") as a, \
                open(runner.path(name + ".serial.csv"), "rb") as b:
            if a.read() != b.read():
                runner.fail("csv_equals_serial", name + " (traced)")
        part = spanlib.read(span_path)
        job_ns[name] = [s.duration_ns for s in part.values() if s.name == "sweep.job"]
        offset = len(spans)
        for k, s in part.items():
            spans[offset + k] = s
        with open(ctr_path) as f:
            for k, v in json.load(f)["replay"].items():
                counters[k] = counters.get(k, 0) + v

    roll = spanlib.rollup(spans)
    layers.flow_and_core(runner, out, roll, counters)
    out["topo.build_ms.sum"] = sum(roll["topo.build"]["dur_ns"]) / 1e6 \
        if "topo.build" in roll else 0.0
    churn = roll["sim.churn"]["dur_ns"] if "sim.churn" in roll else []
    out["sim.churn_ms.sum"] = sum(churn) / 1e6
    out["sim.churn_ms.p50"] = (stats.percentile(churn, 50) or 0) / 1e6
    out["sim.replan_solves"] = counters.get("churn_replan_solves", 0)
    out["sim.gk_pushes"] = counters.get("churn_gk_pushes", 0)
    out["sim.gk_searches"] = counters.get("churn_gk_searches", 0)

    jobs = job_ns["free"] + job_ns["churn"]
    job_sum_ms = sum(jobs) / 1e6
    out["sweep.job_ms.sum"] = job_sum_ms
    out["sweep.job_ms.p50"] = stats.percentile(jobs, 50) / 1e6
    out["sweep.job_ms.max"] = max(jobs) / 1e6
    out["sweep.pool_efficiency"] = job_sum_ms / (THREADS * parallel_wall * 1e3)
    out["sweep.critical_share"] = out["sweep.job_ms.max"] / (parallel_wall * 1e3)
    hits = sum(c["hits"] for c in caches)
    misses = sum(c["misses"] for c in caches)
    out["sweep.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["sweep.lock_contentions"] = sum(c["lock_contentions"] for c in caches)
    out["flow.theta_useful_share"] = (sum(c["insertions"] for c in caches) / misses
                                      if misses else 0.0)
    out["bench.churn_job_share"] = sum(job_ns["churn"]) / 1e6 / job_sum_ms
    out["bench.trace_overhead"] = job_sum_ms / 1e3 / sum(serial_walls.values())
    replay_ns = sum(roll["sweep.replay"]["dur_ns"]) if "sweep.replay" in roll else 0
    flow_ns = sum(sum(roll[n]["dur_ns"]) for n in layers.FLOW_SOLVES if n in roll)
    out["bench.flow_solve_share"] = flow_ns / replay_ns if replay_ns else 0.0
    return out
