// Serial sweep pass.
//
//   psd_bench sweep --spec FILE --csv OUT [--spans FILE] [--replay]
//                   [--counters FILE]
//
// Plans every scenario of the grid spec one at a time through
// sweep::run_sweep on a one-scenario vector (serial, one SharedThetaCache
// across the whole pass, as psd_sweep shares one) and writes the combined
// report's CSV, which must equal psd_sweep's byte for byte. With --spans
// each scenario's run_sweep call is a `sweep.job` span; --replay then
// re-plans the scenario through the public calls the sweep driver makes
// (build_topology, replay_plan, and ChurnEngine::run for churn rows) under
// a `sweep.replay` span, on a second shared cache.
#include <fstream>
#include <sstream>

#include "args.hpp"
#include "psd/sim/churn.hpp"
#include "psd/sweep/driver.hpp"
#include "replay.hpp"

namespace psdbench {

namespace sim = psd::sim;

int run_sweep_pass(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string spec_path = args.str("spec");
  const std::string csv_path = args.str("csv");
  if (spec_path.empty() || csv_path.empty()) {
    std::fprintf(stderr, "psd_bench sweep: --spec and --csv required\n");
    return 2;
  }
  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "psd_bench sweep: cannot read %s\n", spec_path.c_str());
    return 3;
  }
  std::stringstream text;
  text << in.rdbuf();
  std::size_t skipped = 0;
  const auto scenarios = sweep::expand(sweep::parse_grid_spec(text.str()), &skipped);

  Tracer tracer(args.has("spans"));
  const bool replay = args.has("replay");
  Counters counters;
  sweep::SweepOptions options;
  options.parallel = false;
  options.shared_cache = sweep::make_shared_theta_cache();
  flow::ThetaOptions replay_theta = options.theta;
  replay_theta.shared_cache = sweep::make_shared_theta_cache();

  sweep::SweepReport combined;
  combined.skipped = skipped;
  combined.cache_mode = sweep::CacheMode::kShared;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& sc = scenarios[i];
    const auto req = static_cast<std::int64_t>(i);
    {
      const Scope s(tracer, "sweep.job", req);
      auto one = sweep::run_sweep(std::vector<sweep::Scenario>{sc}, options);
      combined.rows.push_back(std::move(one.rows.front()));
    }
    if (!replay) continue;
    const Scope root(tracer, "sweep.replay", req);
    std::optional<topo::Graph> graph;
    {
      const Scope b(tracer, "topo.build", req);
      graph.emplace(sweep::build_topology(sc.topology, sc.nodes, sc.params.b));
    }
    core::ModelExtensions ext;
    ext.dedup_identical_matchings = sc.extensions.dedup_identical_matchings;
    auto planned = replay_plan(*graph, sc.params, sc.collective, sc.message, ext,
                               replay_theta, tracer, req, &counters);
    if (sc.churn.drops <= 0) continue;
    sim::ChurnConfig cc;
    cc.drops = sc.churn.drops;
    cc.droop = sc.churn.droop;
    cc.seed = sc.churn.seed;
    cc.scenario_key = sc.id();
    cc.gk_epsilon = options.theta.epsilon;
    cc.exact_var_limit = options.theta.exact_var_limit;
    const Scope c(tracer, "sim.churn", req);
    sim::ChurnEngine engine(std::move(*graph), std::move(planned.matchings),
                            sc.params.b, cc);
    const auto report = engine.run();
    counters.churn_replan_solves += report.total_replan_solves;
    counters.churn_gk_pushes += report.total_gk_path_pushes;
    counters.churn_gk_searches += report.total_gk_sssp_searches;
  }

  std::ofstream csv(csv_path, std::ios::binary);
  csv << sweep::to_csv(combined);
  if (!csv) {
    std::fprintf(stderr, "psd_bench sweep: cannot write %s\n", csv_path.c_str());
    return 5;
  }
  if (args.has("counters")) {
    std::ofstream c(args.str("counters"));
    c << "{\"replay\":" << counters.to_json() << "}\n";
  }
  if (tracer.enabled() && !tracer.write(args.str("spans"))) {
    std::fprintf(stderr, "psd_bench sweep: cannot write spans\n");
    return 5;
  }
  for (const auto& row : combined.rows) {
    if (row.error) {
      std::fprintf(stderr, "psd_bench sweep: %s failed: %s\n",
                   row.scenario.id().c_str(), row.error->c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace psdbench
