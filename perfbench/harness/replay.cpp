// Serve-request replay.
//
//   psd_bench replay --requests FILE --answers FILE [--spans FILE]
//                    [--counters FILE] [--inproc] [--threads N]
//                    [--journal-dir DIR] [--count-from K]
//
// FILE holds the request stream the load generator sent, one
// "<due_us>\t<conn>\t<tag>\t<json>" line per request, in send order. Every request
// is parsed; every plan request whose solve key is not fresh in the
// replay's own memo is re-planned through the public calls
// PlanService::solve_plan makes (replay_plan), the response is rendered
// with plan_response and appended to a MemoJournal; deltas are mirrored
// with apply_delta and carry_across_delta on the replay's shared θ cache.
//
// --inproc additionally submits each line, before its replay, to an
// in-process serve::PlanService through submit_line with a per-request
// sink (the socket transport's code path) and records how long submit_line
// took and when the answer arrived. --spans records one span per public
// call. Without either, --threads N re-plans the misses between deltas on
// N threads (answers only: the untraced run's correctness reference).
// Counters and θ-cache counts cover requests K.. only (--count-from;
// set-up excluded), except theta_label_mismatches, which covers them all.
#include "replay.hpp"

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "args.hpp"
#include "psd/core/algo_select.hpp"
#include "psd/core/optimizers.hpp"
#include "psd/core/pipelined_cost.hpp"
#include "psd/flow/commodity.hpp"
#include "psd/serve/service.hpp"
#include "psd/serve/snapshot.hpp"
#include "psd/sweep/shared_theta_cache.hpp"
#include "psd/topo/builders.hpp"
#include "psd/workload/workload.hpp"

namespace psdbench {

std::string Counters::to_json() const {
  std::string s = "{";
  const auto add = [&s](const char* k, long long v) {
    if (s.size() > 1) s += ",";
    s += "\"" + std::string(k) + "\":" + std::to_string(v);
  };
  add("materialize_calls", materialize_calls);
  add("steps", steps);
  add("select_calls", select_calls);
  add("gk_pushes", gk_pushes);
  add("gk_searches", gk_searches);
  add("churn_replan_solves", churn_replan_solves);
  add("churn_gk_pushes", churn_gk_pushes);
  add("churn_gk_searches", churn_gk_searches);
  add("theta_label_mismatches", theta_label_mismatches);
  return s + "}";
}

namespace {

bool wants_auto(const sweep::CollectiveSpec& c) {
  return (c.kind == workload::CollectiveKind::kAllReduce &&
          c.allreduce == workload::AllReduceAlgo::kAuto) ||
         (c.kind == workload::CollectiveKind::kAllToAll &&
          c.alltoall == workload::AllToAllAlgo::kAuto);
}

bool pow2(int n) { return n >= 2 && (n & (n - 1)) == 0; }

/// The schedules select_algorithm scores for this request (algo_select.cpp
/// order), so their θ can be solved in flow spans before it runs.
std::vector<workload::MaterializeOptions> candidate_options(
    const workload::CollectiveRequest& request, int n,
    const workload::MaterializeOptions& mat) {
  using workload::AllReduceAlgo;
  using workload::AllToAllAlgo;
  const bool allreduce = request.kind == workload::CollectiveKind::kAllReduce;
  std::vector<workload::MaterializeOptions> out;
  const auto with = [&](AllReduceAlgo ar, AllToAllAlgo aa) {
    workload::MaterializeOptions o = mat;
    o.allreduce = ar;
    o.alltoall = aa;
    out.push_back(o);
  };
  if (request.size.count() <= mat.auto_thresholds.small_message.count()) {
    if (allreduce) {
      with(workload::resolve_allreduce_auto(request.size, n, mat.auto_thresholds),
           mat.alltoall);
    } else {
      with(mat.allreduce,
           workload::resolve_alltoall_auto(request.size, n, mat.auto_thresholds));
    }
    return out;
  }
  if (allreduce) {
    with(AllReduceAlgo::kRing, mat.alltoall);
    if (pow2(n)) {
      with(AllReduceAlgo::kRecursiveDoubling, mat.alltoall);
      with(AllReduceAlgo::kHalvingDoubling, mat.alltoall);
      with(AllReduceAlgo::kSwing, mat.alltoall);
    }
  } else {
    with(mat.allreduce, AllToAllAlgo::kTranspose);
    if (pow2(n)) with(mat.allreduce, AllToAllAlgo::kBruck);
  }
  return out;
}

/// θ of every step through the oracle, one span per lookup named by its
/// outcome: a cache hit, or a solve by the dispatch the oracle uses. The
/// label is checked against the solve's own stats (only GK pushes paths);
/// a solve the label misbooks counts in theta_label_mismatches.
void theta_per_step(const flow::ThetaOracle& oracle, bool ring,
                    const collective::CollectiveSchedule& schedule,
                    Tracer& tracer, std::int64_t request, Counters* counters) {
  const std::size_t edges =
      static_cast<std::size_t>(oracle.base().num_edges());
  for (const auto& step : schedule.steps()) {
    const auto before = oracle.solve_stats();
    const int span = tracer.begin("flow.theta.hit", request);
    (void)oracle.theta(step.matching);
    tracer.end(span);
    const auto after = oracle.solve_stats();
    const long long pushes = after.gk_path_pushes - before.gk_path_pushes;
    if (counters != nullptr) {
      counters->gk_pushes += pushes;
      counters->gk_searches += after.gk_sssp_searches - before.gk_sssp_searches;
    }
    if (after.solves == before.solves) continue;
    const char* kind = "flow.theta.gk";
    if (ring) {
      kind = "flow.theta.ring";
    } else if (flow::commodities_from_matching(step.matching).size() * edges <=
               oracle.options().exact_var_limit) {
      kind = "flow.theta.lp";
    }
    const bool gk = kind == std::string_view("flow.theta.gk");
    if (counters != nullptr && gk != (pushes > 0)) ++counters->theta_label_mismatches;
    tracer.rename(span, kind);
  }
}

collective::CollectiveSchedule materialize_counted(
    const workload::CollectiveRequest& request, int n,
    const workload::MaterializeOptions& mat, Tracer& tracer,
    std::int64_t req, Counters* counters) {
  const Scope s(tracer, "workload.materialize", req);
  auto schedule = workload::materialize(request, n, mat);
  if (counters != nullptr) {
    ++counters->materialize_calls;
    counters->steps += schedule.num_steps();
  }
  return schedule;
}

}  // namespace

PlanReplay replay_plan(const topo::Graph& graph, const core::CostParams& params,
                       const sweep::CollectiveSpec& collective, Bytes message,
                       const core::ModelExtensions& ext,
                       const flow::ThetaOptions& theta, Tracer& tracer,
                       std::int64_t req, Counters* counters) {
  std::optional<core::Planner> planner;
  {
    const Scope s(tracer, "core.planner", req);
    planner.emplace(graph, params, theta, core::PlannerOptions{.parallel = false});
  }
  const flow::ThetaOracle& oracle = planner->oracle();
  const bool ring = topo::is_directed_ring(graph);
  {
    const Scope s(tracer, "topo.base_hops", req);
    (void)oracle.base_hops();
  }
  const int n = graph.num_nodes();
  const workload::CollectiveRequest request{collective.kind, message, "bench"};
  workload::MaterializeOptions mat;
  mat.allreduce = collective.allreduce;
  mat.alltoall = collective.alltoall;
  PlanReplay out;
  if (wants_auto(collective)) {
    for (const auto& cand : candidate_options(request, n, mat)) {
      const auto schedule =
          materialize_counted(request, n, cand, tracer, req, counters);
      theta_per_step(oracle, ring, schedule, tracer, req, counters);
    }
    const Scope s(tracer, "core.select", req);
    const auto sel = core::select_algorithm(*planner, request, mat, ext);
    if (counters != nullptr) ++counters->select_calls;
    out.answer.chosen_algo = sel.chosen.algo;
    mat.allreduce = sel.chosen.allreduce;
    mat.alltoall = sel.chosen.alltoall;
  }
  const auto schedule = materialize_counted(request, n, mat, tracer, req, counters);
  theta_per_step(oracle, ring, schedule, tracer, req, counters);
  std::optional<core::ProblemInstance> inst;
  {
    const Scope s(tracer, "core.instance", req);
    inst.emplace(schedule, oracle, params);
  }
  core::PlannerResult r;
  {
    const Scope s(tracer, "core.dp", req);
    r.optimal = core::optimal_plan(*inst, ext);
  }
  {
    const Scope s(tracer, "core.baselines", req);
    r.static_base = core::static_plan(*inst, ext);
    r.naive_bvn = core::bvn_plan(*inst, ext);
    r.greedy = core::greedy_threshold_plan(*inst, ext);
  }
  core::PipelinedCostModel::ChunkSweep chunks;
  {
    const Scope s(tracer, "core.pipelined", req);
    chunks = core::PipelinedCostModel(*inst, ext).best_over_chunks(r.optimal.choice);
  }
  serve::PlanAnswer& a = out.answer;
  a.steps = schedule.num_steps();
  a.optimal_ns = r.optimal.total_time().ns();
  a.static_ns = r.static_base.total_time().ns();
  a.naive_bvn_ns = r.naive_bvn.total_time().ns();
  a.greedy_ns = r.greedy.total_time().ns();
  a.reconfigurations = r.optimal.num_reconfigurations;
  a.speedup_vs_static = r.speedup_vs_static();
  a.speedup_vs_bvn = r.speedup_vs_bvn();
  a.pipelined_ns = chunks.completion.ns();
  a.pipeline_chunks = chunks.chunks;
  out.matchings.reserve(schedule.steps().size());
  for (const auto& step : schedule.steps()) out.matchings.push_back(step.matching);
  return out;
}

namespace {

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Context {
  topo::Graph graph;
  Bandwidth b_ref;
  std::uint64_t epoch = 0;  // deltas applied (the wire epoch)
};

struct MemoEntry {
  std::size_t slot = 0;  // index into the answer slots
  std::uint64_t epoch = 0;
  serve::PlanFields plan;
  std::string context;
};

struct Pending {
  std::size_t slot;
  const Context* ctx;
  serve::PlanFields plan;
};

/// One answer captured from an in-process submit_line.
struct Capture {
  std::mutex mu;
  std::condition_variable cv;
  std::string line;
  bool done = false;
};

std::string context_key(const sweep::TopologySpec& t, int nodes, double gbps) {
  return sweep::to_string(t) + "/n" + std::to_string(nodes) + "/bw" + fmt17(gbps);
}

std::string solve_key(const std::string& ckey, const serve::PlanFields& p) {
  return ckey + "/" + sweep::to_string(p.collective) + "/m" +
         fmt17(p.message.count()) + "/a" + fmt17(p.params.alpha.ns()) + "/d" +
         fmt17(p.params.delta.ns()) + "/ar" + fmt17(p.params.alpha_r.ns());
}

}  // namespace

int run_replay(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string requests_path = args.str("requests");
  const std::string answers_path = args.str("answers");
  if (requests_path.empty() || answers_path.empty()) {
    std::fprintf(stderr, "psd_bench replay: --requests and --answers required\n");
    return 2;
  }
  std::ifstream in(requests_path);
  if (!in) {
    std::fprintf(stderr, "psd_bench replay: cannot read %s\n", requests_path.c_str());
    return 3;
  }
  std::vector<std::string> lines;
  for (std::string raw; std::getline(in, raw);) {
    std::size_t tab = 0;
    for (int field = 0; field < 3 && tab != std::string::npos; ++field) {
      tab = raw.find('\t', field == 0 ? 0 : tab + 1);
    }
    if (tab == std::string::npos) continue;
    lines.push_back(raw.substr(tab + 1));
  }

  Tracer tracer(args.has("spans"));
  const bool inproc = args.has("inproc");
  const unsigned threads = static_cast<unsigned>(args.num("threads", 1));
  const bool batch = threads > 1 && !tracer.enabled() && !inproc;
  const std::string journal_dir = args.str("journal-dir");
  Counters counters;

  // The oracle configuration PlanService runs with.
  const serve::ServiceOptions service_defaults;
  flow::ThetaOptions theta = service_defaults.theta;
  theta.track_support = true;
  theta.use_cache = true;
  const auto cache = sweep::make_shared_theta_cache(service_defaults.theta_cache);
  theta.shared_cache = cache;

  std::unique_ptr<serve::MemoJournal> journal;
  if (!journal_dir.empty() && !batch) {
    journal = std::make_unique<serve::MemoJournal>(journal_dir + "/replay.journal",
                                                   serve::MemoJournalOptions{});
    (void)journal->load();
  }
  std::unique_ptr<serve::PlanService> service;
  if (inproc) {
    serve::ServiceOptions o;
    o.queue_limit = 1 << 20;
    if (!journal_dir.empty()) o.memo_journal_path = journal_dir + "/inproc.journal";
    service = std::make_unique<serve::PlanService>(o, [](const std::string&) {});
  }

  std::unordered_map<std::string, std::unique_ptr<Context>> contexts;
  std::unordered_map<std::string, MemoEntry> memo;
  std::vector<serve::PlanAnswer> slots;
  std::vector<std::uint64_t> slot_epoch;
  std::vector<Pending> pending;
  std::vector<std::string> records(lines.size());
  std::vector<std::ptrdiff_t> record_slot(lines.size(), -1);

  // Re-plans the deferred misses (batch mode) on `threads` threads; each
  // miss reads its context's graph, which no delta touches meanwhile.
  const auto flush = [&] {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    std::exception_ptr err;
    std::mutex err_mu;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        Tracer off(false);
        for (std::size_t k = next++; k < pending.size(); k = next++) {
          try {
            const Pending& p = pending[k];
            slots[p.slot] = replay_plan(p.ctx->graph, p.plan.params, p.plan.collective,
                                        p.plan.message, {}, theta, off, -1, nullptr)
                                .answer;
          } catch (...) {
            const std::lock_guard<std::mutex> lk(err_mu);
            if (!err) err = std::current_exception();
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    pending.clear();
    if (err) std::rethrow_exception(err);
  };

  const auto live_records = [&] {
    std::vector<serve::MemoSnapshotRecord> live;
    for (const auto& [key, e] : memo) {
      const Context& ctx = *contexts.at(e.context);
      if (e.epoch != ctx.epoch) continue;
      live.push_back({e.plan, slots[e.slot], e.epoch,
                      flow::theta_context_fingerprint(ctx.graph, ctx.b_ref, theta)});
    }
    return live;
  };

  const auto count_from = static_cast<std::size_t>(args.num("count-from", 0));
  auto cache_from = cache->stats();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == count_from) {
      counters = Counters{.theta_label_mismatches = counters.theta_label_mismatches};
      cache_from = cache->stats();
    }
    const std::string& line = lines[i];
    const auto req_id = static_cast<std::int64_t>(i);
    std::string inproc_json;
    if (service) {
      auto cap = std::make_shared<Capture>();
      auto sink = std::make_shared<const serve::PlanService::Emit>(
          [cap](const std::string& s) {
            const std::lock_guard<std::mutex> lk(cap->mu);
            cap->line = s;
            cap->done = true;
            cap->cv.notify_all();
          });
      const auto t0 = Clock::now();
      service->submit_line(line, sink);
      const auto t1 = Clock::now();
      std::unique_lock<std::mutex> lk(cap->mu);
      cap->cv.wait(lk, [&] { return cap->done; });
      const auto t2 = Clock::now();
      inproc_json = ",\"inproc\":{\"submit_ns\":" + std::to_string(ns_between(t0, t1)) +
                    ",\"e2e_ns\":" + std::to_string(ns_between(t0, t2)) +
                    ",\"response\":" + cap->line + "}";
    }

    const Scope root(tracer, "serve.request", req_id);
    serve::Request req;
    {
      const Scope s(tracer, "serve.parse", req_id);
      req = serve::parse_request(line);
    }
    std::string head = "{\"i\":" + std::to_string(i);
    if (req.op == serve::RequestOp::kDelta) {
      const Scope s(tracer, "serve.delta", req_id);
      if (batch) flush();
      const std::string ckey = context_key(req.delta.topology, req.delta.nodes,
                                           req.delta.bandwidth_gbps);
      auto& slot = contexts[ckey];
      const Bandwidth b_ref(req.delta.bandwidth_gbps / 8.0);
      if (!slot) {
        const Scope b(tracer, "topo.build", req_id);
        slot = std::make_unique<Context>(Context{
            sweep::build_topology(req.delta.topology, req.delta.nodes, b_ref), b_ref});
      }
      Context& ctx = *slot;
      const auto old_fp = flow::theta_context_fingerprint(ctx.graph, ctx.b_ref, theta);
      topo::DeltaResult result;
      {
        const Scope a(tracer, "topo.apply_delta", req_id);
        result = topo::apply_delta(ctx.graph, req.delta.delta);
      }
      ++ctx.epoch;
      const auto new_fp = flow::theta_context_fingerprint(ctx.graph, ctx.b_ref, theta);
      flow::SharedThetaCacheBase::CarryStats carry;
      {
        const Scope c(tracer, "flow.carry", req_id);
        carry = cache->carry_across_delta(old_fp, new_fp, result.touched,
                                          result.relaxing);
      }
      records[i] = head + ",\"kind\":\"delta\",\"epoch\":" + std::to_string(ctx.epoch) +
                   ",\"examined\":" + std::to_string(carry.examined) +
                   ",\"carried\":" + std::to_string(carry.survived) + inproc_json + "}";
      continue;
    }
    if (req.op != serve::RequestOp::kPlan) {
      records[i] = head + ",\"kind\":\"other\"" + inproc_json + "}";
      continue;
    }
    const serve::PlanFields& plan = req.plan;
    const std::string ckey =
        context_key(plan.topology, plan.nodes, plan.params.b.gbps());
    auto& cslot = contexts[ckey];
    if (!cslot) {
      const Scope b(tracer, "topo.build", req_id);
      cslot = std::make_unique<Context>(Context{
          sweep::build_topology(plan.topology, plan.nodes, plan.params.b),
          plan.params.b});
    }
    Context& ctx = *cslot;
    const std::string skey = solve_key(ckey, plan);
    const auto mit = memo.find(skey);
    const bool hit = mit != memo.end() && mit->second.epoch == ctx.epoch;
    std::size_t slot = hit ? mit->second.slot : slots.size();
    if (!hit) {
      slots.emplace_back();
      slot_epoch.push_back(ctx.epoch);
      memo[skey] = MemoEntry{slot, ctx.epoch, plan, ckey};
      if (batch) {
        pending.push_back({slot, &ctx, plan});
      } else {
        {
          const Scope s(tracer, "serve.solve", req_id);
          slots[slot] = replay_plan(ctx.graph, plan.params, plan.collective,
                                    plan.message, {}, theta, tracer, req_id,
                                    &counters)
                            .answer;
        }
        std::string response;
        {
          const Scope e(tracer, "serve.emit", req_id);
          response = serve::plan_response(req.id, slots[slot], ctx.epoch, 0,
                                          false, false, 0.0);
        }
        if (journal) {
          const Scope j(tracer, "serve.journal_append", req_id);
          (void)journal->append(
              {plan, slots[slot], ctx.epoch,
               flow::theta_context_fingerprint(ctx.graph, ctx.b_ref, theta)});
          if (journal->wants_compaction()) {
            const Scope c(tracer, "serve.journal_compact", req_id);
            (void)journal->compact(live_records());
          }
        }
      }
    } else if (!batch) {
      const Scope e(tracer, "serve.emit", req_id);
      (void)serve::plan_response(req.id, slots[slot], ctx.epoch, 0, true, false,
                                 0.0);
    }
    record_slot[i] = static_cast<std::ptrdiff_t>(slot);
    records[i] = head + ",\"kind\":\"" + (hit ? "hit" : "miss") +
                 "\",\"epoch\":" + std::to_string(ctx.epoch) + inproc_json;
  }
  if (batch) flush();

  std::ofstream out(answers_path);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (record_slot[i] < 0) {
      out << records[i] << "\n";
      continue;
    }
    const auto slot = static_cast<std::size_t>(record_slot[i]);
    out << records[i] << ",\"answer\":"
        << serve::plan_response("", slots[slot], slot_epoch[slot], 0, false, false, 0.0)
        << "}\n";
  }
  if (!out) {
    std::fprintf(stderr, "psd_bench replay: cannot write %s\n", answers_path.c_str());
    return 5;
  }
  std::string inproc_stats = "null";
  if (service) {
    // The in-process service's own counters, read through its stats op
    // (answered synchronously).
    service->drain();
    service->submit_line(R"({"op":"stats","id":"stats"})",
                         std::make_shared<const serve::PlanService::Emit>(
                             [&inproc_stats](const std::string& s) { inproc_stats = s; }));
    service->shutdown();
  }
  if (args.has("counters")) {
    const auto cs = cache->stats();
    std::ofstream c(args.str("counters"));
    c << "{\"replay\":" << counters.to_json() << ",\"theta_cache\":{\"hits\":"
      << cs.hits - cache_from.hits << ",\"misses\":" << cs.misses - cache_from.misses
      << ",\"insertions\":" << cs.insertions - cache_from.insertions
      << "},\"inproc_stats\":" << inproc_stats << "}\n";
  }
  if (tracer.enabled() && !tracer.write(args.str("spans"))) {
    std::fprintf(stderr, "psd_bench replay: cannot write spans\n");
    return 5;
  }
  return 0;
}

}  // namespace psdbench
