"""serve_steady and serve_cold: drive a real psd_serve daemon from outside,
check every answer against a replay, and roll traced replays up into
per-layer metrics."""

import json
import math
import os
import socket
import subprocess
import time
from dataclasses import dataclass

from . import gen, layers, stats
from .answers import answer_of, dp_violations
from .build import BenchError

KNOWN_CODES = {"OK", "INVALID_REQUEST", "SHED", "DEADLINE_EXCEEDED", "INTERNAL",
               "SHUTTING_DOWN"}


def _cpu_split():
    """(daemon cores, load generator cores): the busy-polling generator gets
    a core of its own so it never competes with the daemon it measures.
    Unpinned (None) on boxes with fewer than three cores."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 3:
        return None, None
    return set(cores[:-1]), {cores[-1]}


DAEMON_CPUS, LOADGEN_CPUS = _cpu_split()


def _pinned(cpus):
    return None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))


@dataclass
class Rec:
    """One request as the load generator saw it (times in ns from phase
    start; -1 when unsent or unanswered)."""
    idx: int
    conn: int
    due_ns: int
    sent_ns: int
    recv_ns: int
    code: str  # "" when unanswered
    epoch: int
    cached: bool
    answer: tuple
    carried: int
    examined: int
    plan_ms: float  # the daemon's plan_latency_ms; -1 when absent


def vm_hwm_mb(pid):
    """Peak resident set (VmHWM) of a live process in MB, 0 when gone. Read
    from /proc, not getrusage: a child's ru_maxrss keeps the RSS it
    inherited from the forking benchmark before exec."""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_s(pid):
    """CPU seconds (user + system, ns resolution) the live threads of a
    process have run, from /proc/<pid>/task/*/schedstat. The guest kernel
    keeps host steal time out of it (paravirt time accounting), and idle
    time and wake-up latency are not in it at all, so it measures the work
    the program did rather than how busy the host was. 0 when gone."""
    total = 0
    try:
        tasks = os.listdir("/proc/%d/task" % pid)
    except OSError:
        return 0.0
    for t in tasks:
        try:
            with open("/proc/%d/task/%s/schedstat" % (pid, t)) as f:
                total += int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended
    return total / 1e9


def read_load(path):
    recs, unexpected, interned = [], 0, {}
    with open(path) as f:
        for line in f:
            if line.startswith("#unexpected\t"):
                unexpected = int(line.split("\t")[1])
                continue
            idx, conn, due, sent, recv, resp = line.rstrip("\n").split("\t", 5)
            r = json.loads(resp) if resp else {}
            ans = answer_of(r) if "optimal_ns" in r else None
            if ans is not None:
                ans = interned.setdefault(ans, ans)
            recs.append(Rec(int(idx), int(conn), int(due), int(sent), int(recv),
                            r.get("code", ""), r.get("epoch", 0), bool(r.get("cached")),
                            ans, r.get("theta_carried", 0), r.get("theta_examined", 0),
                            r.get("plan_latency_ms", -1.0)))
    return recs, unexpected


class Daemon:
    """One psd_serve on a Unix socket in ``workdir``, with a memo journal
    there when ``journal`` is set."""

    def __init__(self, binary, workdir, journal):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.sock = os.path.join(workdir, "s.sock")
        self.log = open(os.path.join(workdir, "daemon.log"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--socket", self.sock, "--queue-limit", "1000000"]
            + (["--memo-journal", os.path.join(workdir, "memo")] if journal else []),
            stdout=self.log, stderr=subprocess.STDOUT, preexec_fn=_pinned(DAEMON_CPUS))
        while True:
            try:
                with socket.socket(socket.AF_UNIX) as s:
                    s.connect(self.sock)
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() - t0 > 30:
                    self.kill()
                    raise BenchError("psd_serve did not start (see %s)" % workdir)
                time.sleep(0.0005)
        self.accept_s = time.perf_counter() - t0
        self.accept_cpu_s = cpu_s(self.proc.pid)
        self.peak_rss_mb = None

    def request(self, obj):
        with socket.socket(socket.AF_UNIX) as s:
            s.settimeout(30)
            s.connect(self.sock)
            s.sendall((gen.dumps(obj) + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf.decode())

    def stop(self):
        """Shuts the daemon down; returns its peak RSS (VmHWM) in MB."""
        self.peak_rss_mb = vm_hwm_mb(self.proc.pid)
        try:
            self.request({"op": "shutdown", "id": "bench-shutdown"})
        except OSError:
            pass
        deadline = time.time() + 30
        while time.time() < deadline:
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        else:
            self.kill()
            raise BenchError("psd_serve did not shut down")
        self.log.close()
        return self.peak_rss_mb

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Runner:
    """Per-run scratch state: the build's binaries and a work directory."""

    def __init__(self, bins, workdir, seed, seconds, trace):
        self.bins, self.workdir = bins, workdir
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.daemons = []
        self.gates = {}  # gate name -> failures
        self.sent = 0
        self.failed = 0
        self.codes = {}
        self.phases = {}  # phase -> {"sent", "ok", "failed": {code: n}}
        self.context = {"phases": self.phases}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def daemon(self, tag, journal=True):
        d = Daemon(self.bins["serve"], self.path(tag), journal)
        self.daemons.append(d)
        return d

    def close(self):
        for d in self.daemons:
            if d.proc.poll() is None:
                d.kill()

    def fail(self, gate, what):
        self.gates.setdefault(gate, []).append(what)

    def drive(self, daemon, reqs, name, mode, conns):
        """Sends ``reqs`` through psd_bench load; returns their records in
        request order and accounts them (sent, failed by code)."""
        stream = self.path(name + ".tsv")
        out = self.path(name + ".out")
        gen.write_stream(stream, reqs)
        cmd = [self.bins["bench"], "load", "--socket", daemon.sock, "--requests",
               stream, "--out", out, "--mode", mode, "--conns", str(conns),
               "--timeout-s", "60"]
        if subprocess.run(cmd, preexec_fn=_pinned(LOADGEN_CPUS)).returncode != 0:
            raise BenchError("load generator failed on " + name)
        recs, unexpected = read_load(out)
        if unexpected:
            self.fail("exactly_once", "%s: %d unexpected answers" % (name, unexpected))
        acct = self.phases[name] = {"sent": 0, "ok": 0, "failed": {}}
        for r in recs:
            self.sent += 1
            acct["sent"] += 1
            code = r.code or "NO_ANSWER"
            self.codes[code] = self.codes.get(code, 0) + 1
            if code == "OK":
                acct["ok"] += 1
            else:
                self.failed += 1
                acct["failed"][code] = acct["failed"].get(code, 0) + 1
            if r.code and r.code not in KNOWN_CODES:
                self.fail("known_code", "%s #%d: %s" % (name, r.idx, r.code))
            if not r.code:
                self.fail("exactly_once", "%s #%d unanswered" % (name, r.idx))
        return recs

    def replay(self, reqs, name, extra):
        """psd_bench replay over ``reqs``; returns (records by stream index,
        wall seconds, counters or None)."""
        stream = self.path(name + ".tsv")
        answers = self.path(name + ".answers")
        counters = self.path(name + ".counters")
        gen.write_stream(stream, reqs)
        cmd = [self.bins["bench"], "replay", "--requests", stream, "--answers",
               answers, "--counters", counters] + extra
        t0 = time.perf_counter()
        if subprocess.run(cmd).returncode != 0:
            raise BenchError("replay failed on " + name)
        wall = time.perf_counter() - t0
        out, interned = [], {}
        with open(answers) as f:
            for line in f:
                r = json.loads(line)
                if "answer" in r:
                    a = answer_of(r["answer"])
                    r["answer"] = interned.setdefault(a, a)
                out.append(r)
        with open(counters) as f:
            ctr = json.load(f)
        return out, wall, ctr

    def check(self, name, reqs, recs, reference, offset):
        """Gates every OK answer in ``recs`` (requests ``reqs``) against the
        replay's answers for stream positions offset..offset+len."""
        for i, (q, r) in enumerate(zip(reqs, recs)):
            if r.code != "OK" or q.body["op"] != "plan":
                continue
            ref = reference[offset + i]
            want = ref.get("answer")
            if r.answer is None or want is None:
                self.fail("answer_equals_replay", "%s #%d: no answer" % (name, i))
                continue
            if r.epoch != ref["epoch"]:
                self.fail("answer_equals_replay", "%s #%d: epoch %s != %s"
                          % (name, i, r.epoch, ref["epoch"]))
            elif r.answer != want:
                self.fail("answer_equals_replay", "%s #%d: %s != %s"
                          % (name, i, r.answer, want))
            for v in dp_violations(r.answer):
                self.fail("dp_invariants", "%s #%d: %s" % (name, i, v))


def plan_latencies_ms(recs):
    """The daemon's plan_latency_ms of every solved plan (an OK answer not
    served from the memo); a failed request counts as infinitely late."""
    return [r.plan_ms if r.code == "OK" else math.inf
            for r in recs if r.code != "OK" or (not r.cached and r.plan_ms >= 0)]


def latencies_ms(recs, from_due):
    """Request latencies in ms; a failed request counts as infinitely late."""
    out = []
    for r in recs:
        if r.code != "OK" or r.recv_ns < 0:
            out.append(math.inf)
        else:
            out.append((r.recv_ns - (r.due_ns if from_due else r.sent_ns)) / 1e6)
    return out


# ---- serve_steady -------------------------------------------------------

# Sizes below are per 10 s of --seconds unless marked otherwise.
STEADY_SETUP_REPEATS = 3  # fresh daemon + warm-up each; setup_s is the median
STEADY_CONNS = 4  # closed-loop saturation and open-loop phases alike
STEADY_ROUNDS = 8  # closed-loop rounds; each metric is the median over rounds
STEADY_REQUESTS = 160000  # closed-loop requests, split over the rounds
# Open loop (traced runs): the frozen rates are 50 % and 80 % of the seed
# commit's closed-loop saturation (35 000/s median on the reference VM).
R50_OPS_S = 17500
R80_OPS_S = 28000
OPEN_SECONDS = 2.0  # of arrivals at r50 and at r80
P99_LIMIT_MS = 50.0
LADDER_STEP = 0.05  # each ladder rate is r80 x (1 + LADDER_STEP x k)
LADDER_STEPS = 8
LADDER_SECONDS = 1.0  # of arrivals per ladder rate
MAX_GEN_LATE_P99_MS = 2.0  # p99 send lateness beyond which a phase is rejected
LATE_RETRIES = 2  # re-runs of a rejected r50/r80 phase before the run fails
TRACE_REQUESTS = 20000  # of the r50 stream, replayed in process (absolute)


def _open_phase(runner, daemon, name, rate, count, sizes, seed):
    """One open-loop phase; returns (requests, records, lateness, on_time).
    A phase whose generator ran later than the bound is not a measurement
    of the daemon: _fixed_rate retries it, the ladder stops there."""
    reqs = gen.steady_open(seed, name, rate, count, sizes)
    recs = runner.drive(daemon, reqs, name, "open", STEADY_CONNS)
    late = stats.lateness(recs)
    worst = stats.percentile(late, 99.0) or 0.0
    on_time = worst <= MAX_GEN_LATE_P99_MS
    if not on_time:
        print("open loop %s: generator p99 lateness %.3f ms > %.3f ms"
              % (name, worst, MAX_GEN_LATE_P99_MS))
    return reqs, recs, late, on_time


def _fixed_rate(runner, daemon, tag, rate, count, sizes, seed, phases, sent):
    """An open-loop phase at a fixed rate. An attempt whose generator ran
    late is rejected: it is kept as ``<tag>-rejected<k>`` (its answers are
    still checked, never measured) and the phase runs again on fresh sizes.
    The accepted attempt is stored under ``tag``; after LATE_RETRIES
    rejections the run fails. Returns the accepted attempt's lateness."""
    for attempt in range(LATE_RETRIES + 1):
        reqs, recs, late, on_time = _open_phase(
            runner, daemon, "%s-attempt%d" % (tag, attempt), rate, count, sizes,
            seed + 7919 * attempt)
        sent += reqs
        if on_time:
            phases[tag] = (reqs, recs)
            runner.context["late_rejections"] = attempt + runner.context.get(
                "late_rejections", 0)
            return late
        phases["%s-rejected%d" % (tag, attempt)] = (reqs, recs)
    raise BenchError("open loop %s rejected %d times: the generator ran late"
                     % (tag, LATE_RETRIES + 1))


def _counter_delta(after, before):
    """The daemon's stats counters over the span between two stats ops."""
    out = {k: v - before.get(k, 0) for k, v in after.items()
           if isinstance(v, int) and not isinstance(v, bool)}
    answered = out["planned"] + out["cache_hits"] + out["coalesced"] + out["degraded"]
    out["memo_hit_rate"] = ((out["cache_hits"] + out["coalesced"]) / answered
                            if answered else 0.0)
    return out


def run_steady(runner):
    seed, scale = runner.seed, runner.seconds / 10.0
    setup = gen.steady_setup()

    setup_cpu, setup_walls, setup_recs = [], [], []
    daemon = None
    for k in range(STEADY_SETUP_REPEATS):
        t0 = time.perf_counter()
        # No memo journal here: its fsync per answer on the reference VM's
        # shared virtual disk stalled the workers for seconds at a time and
        # swung closed-loop throughput 2.5x between runs (quartile spread
        # 37 % over ten seeds, 15 % without it). serve_cold journals every
        # answer, and the traced replay times MemoJournal::append.
        d = runner.daemon("steady%d" % k, journal=False)
        recs = runner.drive(d, setup, "setup%d" % k, "closed", 2)
        setup_walls.append(time.perf_counter() - t0)
        setup_cpu.append(cpu_s(d.proc.pid))
        setup_recs.append(recs)
        if k + 1 < STEADY_SETUP_REPEATS:
            d.stop()
        else:
            daemon = d
    stats_before = daemon.request({"op": "stats", "id": "bench-stats0"})["stats"]

    # Timed rounds of closed-loop saturation (4 connections, one request in
    # flight each, no think time). The gated metric is the daemon's CPU
    # time per answer, the median over rounds. Wall-clock figures are
    # reported ungated (see perfbench/README.md, "Why CPU time"): the plan
    # latency the daemon reports for the solved plans (mean and p90 per
    # round; the mean, not the median, because the misses fall into cost
    # classes and a median between two of them jumps), the plans/s and the
    # round trip, each the median over rounds.
    sizes = gen.FreshSizes()
    sent, phases, late = list(setup), {}, []
    sat_rates, sat_rtt, sat_cpu, sat_lat = [], [], [], []
    sat_n = max(1000, int(STEADY_REQUESTS * scale / STEADY_ROUNDS))
    for k in range(STEADY_ROUNDS):
        tag = "sat%d" % k
        reqs = gen.steady_closed(seed * 1000 + k, tag, sat_n, sizes)
        cpu0 = cpu_s(daemon.proc.pid)
        recs = runner.drive(daemon, reqs, tag, "closed", STEADY_CONNS)
        ok = sum(1 for r in recs if r.code == "OK")
        sat_cpu.append((cpu_s(daemon.proc.pid) - cpu0) * 1e3 / max(1, ok))
        sat_rates.append(stats.rate([r.recv_ns for r in recs if r.code == "OK"]))
        sat_rtt.append(stats.percentile(latencies_ms(recs, False), 50))
        sat_lat.append(stats.summarize(plan_latencies_ms(recs),
                                       stats.CLOSED_LOOP_LEVELS))
        phases[tag] = (reqs, recs)
        sent += reqs

    extra = {}
    if runner.trace:
        extra = _open_loop(runner, daemon, seed, scale, phases, sent, late, sizes)
    daemon_stats = _counter_delta(
        daemon.request({"op": "stats", "id": "bench-stats1"})["stats"], stats_before)
    rss = daemon.stop()

    # Correctness: every answer against the replay. The stream has no
    # deltas, so an answer depends only on the request without its id: each
    # distinct request is replayed once (the hits repeat a few dozen).
    unique, position, reference = [], {}, []
    for q in sent:
        key = gen.dumps({k: v for k, v in q.body.items() if k != "id"})
        if key not in position:
            position[key] = len(unique)
            unique.append(q)
        reference.append(position[key])
    answers, _, _ = runner.replay(unique, "verify", ["--threads", "4"])
    reference = [answers[k] for k in reference]
    for k, recs in enumerate(setup_recs):
        runner.check("setup%d" % k, setup, recs, reference, 0)
    offset = len(setup)
    for tag, (reqs, recs) in phases.items():
        runner.check(tag, reqs, recs, reference, offset)
        offset += len(reqs)
    if daemon_stats["deltas"] != 0:
        runner.fail("steady_has_no_deltas", "daemon saw deltas")

    runner.context["samples"] = {
        "cpu_ms_per_op": sat_n * STEADY_ROUNDS, "latency": sum(s["n"] for s in sat_lat),
        "setup_s": len(setup_cpu), "rounds": STEADY_ROUNDS,
        "tail_level": min(s["tail_level"] for s in sat_lat)}
    runner.context["setup_wall_s"] = stats.median(setup_walls)
    runner.context["round_cpu_ms_per_op"] = sat_cpu
    wall = {"bench.throughput_ops_s": stats.median(sat_rates),
            "bench.rtt_p50_ms": stats.median(sat_rtt),
            "bench.latency_mean_ms": stats.median([s["mean"] for s in sat_lat]),
            "bench.latency_tail_ms": stats.median([s["tail"] for s in sat_lat])}
    runner.context.update(wall)
    e2e = {"setup_s": stats.median(setup_cpu), "cpu_ms_per_op": stats.median(sat_cpu),
           "peak_rss_mb": rss}
    if not runner.trace:
        return e2e, None

    # Traced replay of set-up + a prefix of the accepted r50 phase, in process.
    r50_reqs, r50_recs = phases["r50"]
    traced = setup + r50_reqs[:TRACE_REQUESTS]
    per_layer = layers.serve_layers(
        runner, traced, count_from=len(setup), daemon_stats=daemon_stats,
        socket_hits=[r for r in r50_recs if r.cached and r.code == "OK"],
        delta_recs=[], late=late)
    per_layer.update(extra)
    per_layer.update(wall)
    return e2e, per_layer


def _open_loop(runner, daemon, seed, scale, phases, sent, late, sizes):
    """Traced runs only: seeded Poisson arrivals at the frozen rates r50 and
    r80 (latency timed from each request's due time), then the rate ladder.
    Reported ungated, as bench.* per-layer metrics."""
    out = {}
    for k, (tag, rate) in enumerate((("r50", R50_OPS_S), ("r80", R80_OPS_S))):
        count = max(1000, int(rate * OPEN_SECONDS * scale))
        late += _fixed_rate(runner, daemon, tag, rate, count, sizes,
                            seed * 1000 + 900 + k, phases, sent)
        summary = stats.summarize(latencies_ms(phases[tag][1], True))
        out["bench.%s_latency_p50_ms" % tag] = summary["p50"]
        out["bench.%s_latency_p99_ms" % tag] = summary["tail"]
    slo, steps = _ladder(runner, daemon, seed, scale, phases, sent, sizes)
    out["bench.slo_rate_ops_s"] = slo
    out["bench.ladder_steps"] = steps
    return out


def _ladder(runner, daemon, seed, scale, phases, sent, sizes):
    """Open-loop rates above r80 in fine steps until one misses the p99
    limit, leaves a backlog or outruns the generator; the highest passing
    rate (the accepted r50 and r80 phases included) is the SLO rate."""
    passing = 0.0
    for rate, tag in ((R50_OPS_S, "r50"), (R80_OPS_S, "r80")):
        _, recs = phases[tag]
        lat = stats.summarize(latencies_ms(recs, True))
        if lat["tail"] <= P99_LIMIT_MS and not stats.backlog_grows(recs, P99_LIMIT_MS):
            passing = rate
    steps = 0
    for k in range(1, LADDER_STEPS + 1):
        rate = R80_OPS_S * (1.0 + LADDER_STEP * k)
        count = max(1000, int(rate * LADDER_SECONDS * scale))
        tag = "ladder%d" % k
        reqs, recs, _, on_time = _open_phase(runner, daemon, tag, rate, count, sizes,
                                             seed * 1000 + 950 + k)
        sent += reqs
        phases[tag] = (reqs, recs)
        steps = k
        lat = stats.summarize(latencies_ms(recs, True))
        if (not on_time or lat["tail"] > P99_LIMIT_MS
                or stats.backlog_grows(recs, P99_LIMIT_MS)):
            break
        passing = rate
    return passing, steps


# ---- serve_cold ---------------------------------------------------------

COLD_REPEATS = 2  # fresh-daemon repetitions per 10 s of --seconds
COLD_SETUP_REPEATS = 25  # extra launches that only sample setup_s
COLD_CONNS = 2  # matches the daemon's default two workers


def run_cold(runner):
    first, deltas, again = gen.cold_sequence(runner.seed)
    stream = first + deltas + again
    repeats = max(1, round(COLD_REPEATS * runner.seconds / 10.0))
    setups, cpu, rates, rss, plan_lat, rep_p50, runs = [], [], [], [], [], [], []
    delta_recs = []
    # The reference answers come first: they need only the stream, and four
    # threads of GK solving before the timed repetitions keep the first
    # repetition from running about twice as slow as the rest (as it did on
    # the reference VM when it came first).
    reference, _, _ = runner.replay(stream, "verify", ["--threads", "4"])
    # Launch-to-accept is milliseconds: sample it on extra fresh daemons.
    for k in range(COLD_SETUP_REPEATS):
        d = runner.daemon("launch%d" % k)
        setups.append(d.accept_cpu_s)
        d.stop()
    for k in range(repeats):
        d = runner.daemon("cold%d" % k)
        setups.append(d.accept_cpu_s)
        t0 = time.perf_counter()
        f = runner.drive(d, first, "first%d" % k, "closed", COLD_CONNS)
        dl = runner.drive(d, deltas, "delta%d" % k, "closed", 1)
        a = runner.drive(d, again, "again%d" % k, "closed", COLD_CONNS)
        wall = time.perf_counter() - t0
        daemon_stats = d.request({"op": "stats", "id": "bench-stats"})["stats"]
        done = sum(1 for r in f + a if r.code == "OK")
        cpu.append((cpu_s(d.proc.pid) - d.accept_cpu_s) * 1e3 / max(1, done))
        rss.append(d.stop())
        rates.append(done / wall)
        # Latency is taken over first-contact plans: after the deltas, a
        # re-plan either rides an internal replan or hits its result, so
        # its latency is mostly where it landed in that race.
        plan_lat += latencies_ms(f, False)
        rep_p50.append(stats.percentile(latencies_ms(f, False), 50))
        delta_recs += dl
        runs.append((f, dl, a))

    for k, (f, dl, a) in enumerate(runs):
        runner.check("first%d" % k, first, f, reference, 0)
        runner.check("again%d" % k, again, a, reference, len(first) + len(deltas))
    # Mean and tail over the pooled first-contact plans of every repetition.
    # The mean, not the median: the plans fall into a few cost classes (θ
    # cached, LP, GK), and a median sitting between two of them jumps.
    lat = stats.summarize(plan_lat, stats.CLOSED_LOOP_LEVELS)
    runner.context["samples"] = {"cpu_ms_per_op": len(cpu), "latency": lat["n"],
                                 "setup_s": len(setups), "tail_level": lat["tail_level"]}
    wall = {"bench.throughput_ops_s": stats.median(rates),
            "bench.rtt_p50_ms": stats.median(rep_p50),
            "bench.latency_mean_ms": lat["mean"], "bench.latency_tail_ms": lat["tail"]}
    runner.context.update(wall)
    e2e = {"setup_s": stats.median(setups), "cpu_ms_per_op": stats.median(cpu),
           "peak_rss_mb": stats.median(rss)}
    if not runner.trace:
        return e2e, None
    per_layer = layers.serve_layers(runner, stream, count_from=0,
                                    daemon_stats=daemon_stats, socket_hits=[
                                        r for f, _, a in runs for r in f + a
                                        if r.cached and r.code == "OK"],
                                    delta_recs=delta_recs, late=[])
    per_layer.update(wall)
    return e2e, per_layer

