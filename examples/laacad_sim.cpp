// laacad_sim — command-line front end for the whole library: pick a domain
// shape, coverage degree, backend, and deployment, run LAACAD, verify, and
// optionally dump SVG/CSV artifacts. Intended as the "downstream user"
// entry point.
//
// Usage:
//   laacad_sim [--k N] [--nodes N] [--seed S] [--alpha A] [--epsilon E]
//              [--rounds R] [--gamma G] [--domain square|lshape|cross]
//              [--side METRES] [--hole] [--deploy uniform|corner|gaussian]
//              [--backend global|localized] [--max-hops H] [--noise SIGMA]
//              [--threads T] [--svg PREFIX] [--csv FILE] [--trace FILE]
//              [--heartbeat] [--quiet]
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/csv.hpp"
#include "common/specparse.hpp"
#include "common/table.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "obs/heartbeat.hpp"
#include "obs/trace.hpp"
#include "viz/render.hpp"
#include "wsn/connectivity.hpp"
#include "wsn/deployment.hpp"

namespace {

struct Options {
  int k = 2;
  int nodes = 60;
  std::uint64_t seed = 1;
  double alpha = 1.0;
  double epsilon = 0.5;
  int rounds = 300;
  double gamma = 0.0;  // 0 -> auto (side / 6)
  std::string domain = "square";
  double side = 500.0;
  bool hole = false;
  std::string deploy = "uniform";
  std::string backend = "global";
  int max_hops = 10;
  double noise = 0.0;
  int threads = 1;  // 0 = hardware concurrency
  std::string svg_prefix;
  std::string csv_path;
  std::string trace_path;
  bool heartbeat = false;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--k N] [--nodes N] [--seed S] [--alpha A] [--epsilon E]\n"
      "          [--rounds R] [--gamma G] [--domain square|lshape|cross]\n"
      "          [--side M] [--hole] [--deploy uniform|corner|gaussian]\n"
      "          [--backend global|localized] [--max-hops H] [--noise S]\n"
      "          [--threads T] [--svg PREFIX] [--csv FILE] [--trace FILE]\n"
      "          [--heartbeat] [--quiet]\n",
      argv0);
}

bool parse(int argc, char** argv, Options& opt) {
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    auto next = [&]() -> const char* {
      return a + 1 < argc ? argv[++a] : nullptr;
    };
    // Every value is parsed whole, and a missing one is a usage error:
    // "20x" is not 20, 4294967298 is out of range rather than wrapped to 2,
    // and "0.5x" is not 0.5.
    auto refuse = [&](const char* what) {
      std::fprintf(stderr, "%s expects %s\n", flag.c_str(), what);
      return false;
    };
    auto count = [&](int& dst) {
      const auto v = laacad::specparse::parse_flag_int(next(), 0, INT_MAX);
      if (!v) return refuse("a non-negative integer");
      dst = static_cast<int>(*v);
      return true;
    };
    auto real = [&](double& dst) {
      const auto v = laacad::specparse::parse_flag_double(next());
      if (!v) return refuse("a finite number");
      dst = *v;
      return true;
    };
    auto text = [&](std::string& dst) {
      const char* v = next();
      if (!v) return refuse("a value");
      dst = v;
      return true;
    };
    if (flag == "--help" || flag == "-h") return false;
    else if (flag == "--quiet") opt.quiet = true;
    else if (flag == "--heartbeat") opt.heartbeat = true;
    else if (flag == "--hole") opt.hole = true;
    else if (flag == "--k") { if (!count(opt.k)) return false; }
    else if (flag == "--nodes") { if (!count(opt.nodes)) return false; }
    else if (flag == "--seed") {
      const auto v = laacad::specparse::parse_flag_uint64(next());
      if (!v) return refuse("an unsigned 64-bit integer");
      opt.seed = *v;
    }
    else if (flag == "--alpha") { if (!real(opt.alpha)) return false; }
    else if (flag == "--epsilon") { if (!real(opt.epsilon)) return false; }
    else if (flag == "--rounds") { if (!count(opt.rounds)) return false; }
    else if (flag == "--gamma") { if (!real(opt.gamma)) return false; }
    else if (flag == "--domain") { if (!text(opt.domain)) return false; }
    else if (flag == "--side") { if (!real(opt.side)) return false; }
    else if (flag == "--deploy") { if (!text(opt.deploy)) return false; }
    else if (flag == "--backend") { if (!text(opt.backend)) return false; }
    else if (flag == "--max-hops") { if (!count(opt.max_hops)) return false; }
    else if (flag == "--noise") { if (!real(opt.noise)) return false; }
    else if (flag == "--threads") { if (!count(opt.threads)) return false; }
    else if (flag == "--svg") { if (!text(opt.svg_prefix)) return false; }
    else if (flag == "--csv") { if (!text(opt.csv_path)) return false; }
    else if (flag == "--trace") { if (!text(opt.trace_path)) return false; }
    else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace laacad;
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }

  // -- Domain and initial deployment (shared with the scenario engine) -----
  wsn::Domain domain;
  std::vector<geom::Vec2> init;
  Rng rng(opt.seed);
  try {
    domain = wsn::make_named_domain(opt.domain, opt.side, opt.hole);
    init = wsn::deploy_named(domain, opt.deploy, opt.nodes, opt.side, rng);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const double gamma = opt.gamma > 0.0
                           ? opt.gamma
                           : wsn::auto_comm_range(domain, opt.nodes, opt.side);
  wsn::Network net(&domain, init, gamma);
  if (!opt.svg_prefix.empty())
    viz::render_deployment(opt.svg_prefix + "_initial.svg", net);

  // -- Run -----------------------------------------------------------------
  core::LaacadConfig cfg;
  cfg.k = opt.k;
  cfg.alpha = opt.alpha;
  cfg.epsilon = opt.epsilon;
  cfg.max_rounds = opt.rounds;
  cfg.seed = opt.seed;
  cfg.num_threads = opt.threads;
  cfg.retain_history = true;  // the CSV dump below walks every round
  if (opt.backend == "localized") {
    cfg.localized.max_hops = opt.max_hops;
    cfg.localized.frame.range_noise = opt.noise;
    cfg.provider = core::make_localized_provider(cfg.localized, cfg.seed);
  } else if (opt.backend != "global") {
    std::fprintf(stderr, "unknown backend '%s'\n", opt.backend.c_str());
    return 2;
  }
  // --heartbeat streams one {"hb":"engine",...} line per round to stderr:
  // done = rounds executed, total = the round cap, ok = 1 once movement
  // stopped. Same schema as campaign_runner --heartbeat.
  std::unique_ptr<obs::HeartbeatEmitter> heartbeat;
  if (opt.heartbeat) {
    heartbeat = std::make_unique<obs::HeartbeatEmitter>(
        stderr, "engine", "laacad_sim", opt.rounds);
    cfg.on_round = [&heartbeat](const core::RoundMetrics& m) {
      heartbeat->tick(m.round, m.moved == 0 ? 1 : 0);
    };
  }
  if (!opt.trace_path.empty()) obs::start_trace(opt.trace_path);
  core::Engine engine(net, cfg);
  const core::RunResult result = engine.run();
  if (!opt.trace_path.empty()) {
    const obs::TraceReport report = obs::stop_trace();
    if (!opt.quiet)
      std::printf("trace: %s (%zu spans across %zu threads)\n",
                  opt.trace_path.c_str(), report.spans, report.threads);
  }

  // -- Report --------------------------------------------------------------
  const auto exact =
      cov::critical_point_coverage(domain, cov::sensing_disks(net));
  const auto conn =
      wsn::analyze_connectivity(net, 1.25 * result.final_max_range);
  if (!opt.quiet) {
    TextTable table({"metric", "value"});
    table.add_row({"nodes", std::to_string(opt.nodes)});
    table.add_row({"k", std::to_string(opt.k)});
    table.add_row({"backend", opt.backend});
    table.add_row({"threads", std::to_string(opt.threads)});
    table.add_row({"converged", result.converged ? "yes" : "no"});
    table.add_row({"rounds", std::to_string(result.rounds)});
    table.add_row({"R* max range (m)", TextTable::num(result.final_max_range, 3)});
    table.add_row({"min range (m)", TextTable::num(result.final_min_range, 3)});
    table.add_row({"load fairness (Jain)", TextTable::num(result.load.fairness, 4)});
    table.add_row({"verified coverage depth", std::to_string(exact.min_depth)});
    table.add_row({"connected @ 1.25 R*", conn.connected() ? "yes" : "no"});
    table.print(std::cout);
  }

  if (!opt.csv_path.empty()) {
    CsvWriter csv(opt.csv_path,
                  {"round", "max_circumradius", "min_circumradius",
                   "max_move", "moved"});
    for (const auto& m : result.history) {
      csv.add_row({std::to_string(m.round),
                   TextTable::num(m.max_circumradius, 4),
                   TextTable::num(m.min_circumradius, 4),
                   TextTable::num(m.max_move, 4), std::to_string(m.moved)});
    }
  }
  if (!opt.svg_prefix.empty()) {
    viz::render_deployment(opt.svg_prefix + "_final.svg", net);
    viz::render_order_k_partition(opt.svg_prefix + "_partition.svg", net,
                                  opt.k);
  }
  return exact.min_depth >= opt.k ? 0 : 1;
}
