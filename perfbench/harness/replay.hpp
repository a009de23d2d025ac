// Public-call replay of one plan: the calls serve::PlanService::solve_plan
// and the sweep driver make, in their order, each wrapped in a span.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "psd/core/planner.hpp"
#include "psd/serve/protocol.hpp"
#include "psd/sweep/scenario.hpp"
#include "spans.hpp"

namespace psdbench {

namespace collective = psd::collective;
namespace core = psd::core;
namespace flow = psd::flow;
namespace serve = psd::serve;
namespace sweep = psd::sweep;
namespace topo = psd::topo;
namespace workload = psd::workload;
using psd::Bandwidth;
using psd::Bytes;

/// Work counts gathered beside the spans (single-threaded replays only).
struct Counters {
  long long materialize_calls = 0;
  long long steps = 0;  // schedule steps materialized, candidates included
  long long select_calls = 0;
  long long gk_pushes = 0;
  long long gk_searches = 0;
  long long churn_replan_solves = 0;
  long long churn_gk_pushes = 0;
  long long churn_gk_searches = 0;
  long long theta_label_mismatches = 0;  // solves booked to the wrong solver


  [[nodiscard]] std::string to_json() const;
};

/// What one replayed plan produced.
struct PlanReplay {
  serve::PlanAnswer answer;
  std::vector<topo::Matching> matchings;  // the chosen schedule's steps
};

/// Replays a plan of `collective` at `message` on a copy of `graph`:
/// Planner set-up, the first base_hops, algorithm selection (its candidate
/// schedules' θ solved first so flow time lands in flow spans), materialize,
/// θ per step, ProblemInstance, the four optimizers and best_over_chunks.
/// `theta` must carry the shared cache the replay accumulates into.
PlanReplay replay_plan(const topo::Graph& graph, const core::CostParams& params,
                       const sweep::CollectiveSpec& collective, Bytes message,
                       const core::ModelExtensions& ext,
                       const flow::ThetaOptions& theta, Tracer& tracer,
                       std::int64_t request, Counters* counters);

/// `psd_bench replay`: serve-request replay (see replay.cpp).
int run_replay(int argc, char** argv);

}  // namespace psdbench
