// Batch workloads: converge_global (Engine::run) and churn_localized
// (ScenarioRunner::run), untraced and traced.
//
// The traced run is a replica of the engine's round loop and of the
// scenario runner's phase loop, written against the modules' public
// functions so that each call can be timed from here: provider
// begin_round/compute, DominatingRegion construction, Chebyshev centre
// (Welzl), movement, finalize, the per-phase verification and
// scenario::apply_event. perf::counters() deltas are read around every
// fan-out. The replica must end in the same digest as the untraced solve
// of the same instance; run.py fails the run otherwise.
//
// Layers the replica does not split out by itself (CommModel construction,
// boundary detection, gather, the spatial grid of the global provider) are
// measured by probes that repeat the call on the same state; probe time is
// kept off the replica's clock.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/perf_counters.hpp"
#include "common/sysinfo.hpp"
#include "common/thread_pool.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "harness/harness.hpp"
#include "laacad/engine.hpp"
#include "laacad/region.hpp"
#include "laacad/region_provider.hpp"
#include "scenario/apply.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"
#include "wsn/connectivity.hpp"
#include "wsn/energy.hpp"
#include "wsn/spatial_grid.hpp"

namespace perfbench {

namespace {

using namespace laacad;

/// What one solve of one instance produced.
struct Outcome {
  double setup_s = 0.0;
  double solve_s = 0.0;
  int rounds = 0;
  int phases = 0;
  bool converged = false;
  bool coverage_ok = false;
  int min_depth = 0;
  long long node_rounds = 0;
  std::string digest;
};

/// Per-layer accumulators of the traced replica (times in seconds).
struct Layers {
  double build_world_s = 0.0;
  int build_world_calls = 0;
  double step_s = 0.0;
  long long node_rounds = 0;
  double begin_round_s = 0.0;
  int begin_round_calls = 0;
  double grid_s = 0.0;  ///< spatial grid rebuilds (probe for global)
  int grid_calls = 0;
  double fanout_s = 0.0;    ///< wall of the per-node fan-outs
  double node_work_s = 0.0;  ///< sum of per-node work inside them
  double tail_s = 0.0;      ///< serial reduction + movement
  std::vector<double> compute_us;
  double region_s = 0.0, cheb_s = 0.0;
  long long region_calls = 0, cheb_calls = 0;
  double finalize_s = 0.0;
  int finalize_calls = 0;
  double load_report_s = 0.0;
  double connectivity_s = 0.0;
  int connectivity_calls = 0;
  double grid_cov_s = 0.0;
  int grid_cov_calls = 0;
  double grid_cov_samples = 0.0;
  double apply_event_s = 0.0;
  int apply_event_calls = 0;
  double verify_s = 0.0;  ///< per-phase verification inside the solve
  double events_s = 0.0;  ///< timeline events inside the solve
  double comm_build_s = 0.0;
  int comm_build_calls = 0;
  double boundary_s = 0.0;
  int boundary_calls = 0;
  std::vector<double> gather_us;
  perf::KernelCounters kernel;
  std::uint64_t gather_requests = 0, node_reports = 0;
  int threads = 1;
  double probe_s = 0.0;    ///< time spent in probes (kept off the clock)
  double solve_s = 0.0;    ///< replica solve time, probes excluded
  double untraced_solve_s = 0.0;
};

scenario::ScenarioSpec load_spec(const BatchOptions& opt, std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::load_scenario_file(opt.scn_path);
  spec.seed = seed;
  spec.num_threads = opt.threads;
  return spec;
}

long long scenario_node_rounds(const scenario::ScenarioResult& r) {
  long long total = 0;
  for (const scenario::PhaseRecord& p : r.phases)
    total += static_cast<long long>(p.rounds) * p.nodes;
  return total;
}

Outcome solve_untraced(const BatchOptions& opt, std::uint64_t seed) {
  const scenario::ScenarioSpec spec = load_spec(opt, seed);
  Outcome o;
  if (opt.solve == "engine") {
    const Clock::time_point t0 = Clock::now();
    scenario::World w = scenario::build_world(spec);
    const Clock::time_point t1 = Clock::now();
    const core::RunResult r = w.engine->run();
    const Clock::time_point t2 = Clock::now();
    o.setup_s = seconds_between(t0, t1);
    o.solve_s = seconds_between(t1, t2);
    o.rounds = r.rounds;
    o.phases = 1;
    o.converged = r.converged;
    o.node_rounds = static_cast<long long>(r.rounds) * w.net->size();
    o.min_depth = cov::critical_point_coverage(w.domain(),
                                               cov::sensing_disks(*w.net))
                      .min_depth;
    o.coverage_ok = o.min_depth >= spec.k;
    o.digest = network_digest(*w.net);
  } else {
    const Clock::time_point t0 = Clock::now();
    scenario::ScenarioRunner runner(spec);
    const Clock::time_point t1 = Clock::now();
    const scenario::ScenarioResult r = runner.run();
    const Clock::time_point t2 = Clock::now();
    o.setup_s = seconds_between(t0, t1);
    o.solve_s = seconds_between(t1, t2);
    o.rounds = r.total_rounds;
    o.phases = static_cast<int>(r.phases.size());
    o.converged = r.all_converged;
    o.node_rounds = scenario_node_rounds(r);
    o.min_depth = r.phases.empty() ? 0 : r.phases.back().coverage_min_depth;
    o.coverage_ok = r.final_coverage_ok;
    o.digest = network_digest(runner.network());
  }
  return o;
}

/// The provider build_world gives the engine for `spec`.
std::shared_ptr<core::RegionProvider> provider_for(
    const scenario::ScenarioSpec& spec, int nodes) {
  core::LaacadConfig cfg;
  cfg.localized.max_hops = spec.max_hops;
  cfg.localized.frame.range_noise = spec.noise;
  cfg.localized.ideal_gather = (spec.flooding == "ideal");
  const bool localized =
      spec.backend == "localized" ||
      (spec.backend == "auto" && nodes > cfg.provider_auto_threshold);
  return localized ? core::make_localized_provider(cfg.localized, spec.seed)
                   : core::make_global_provider(cfg.adaptive);
}

/// Replica of Engine::step / Engine::finalize and of the scenario runner's
/// phase loop over a scenario::World, timing each layer call.
class TracedReplica {
 public:
  TracedReplica(scenario::World& w, Layers& layers)
      : w_(w), L_(layers),
        provider_(provider_for(w.spec, w.net->size())),
        localized_(provider_->name() == "localized") {
    if (w.spec.num_threads != 1)
      pool_ = std::make_unique<common::ThreadPool>(w.spec.num_threads);
    L_.threads = pool_ ? pool_->size() : 1;
  }

  /// Engine::run: rounds to convergence or the cap, then finalize.
  Outcome run_engine() {
    Outcome o;
    const Clock::time_point t0 = Clock::now();
    const double probe0 = L_.probe_s;
    while (o.rounds < w_.spec.max_rounds) {
      const int moved = step();
      ++o.rounds;
      if (moved == 0) {
        o.converged = true;
        break;
      }
    }
    finalize();
    timed(L_.load_report_s, [&] { (void)wsn::load_report(*w_.net); });
    o.solve_s = seconds_between(t0, Clock::now()) - (L_.probe_s - probe0);
    o.phases = 1;
    o.node_rounds = static_cast<long long>(o.rounds) * w_.net->size();
    phase_end_probes(/*verified=*/false);
    return o;
  }

  /// ScenarioRunner::run: phases, per-phase verification, events.
  Outcome run_scenario() {
    Outcome o;
    const scenario::ScenarioSpec& spec = w_.spec;
    const Clock::time_point t0 = Clock::now();
    const double probe0 = L_.probe_s;
    int global_round = 0;
    bool all_converged = true;
    bool aborted = false;
    for (std::size_t next = 0;; ++o.phases) {
      const scenario::Event* pending =
          next < spec.events.size() ? &spec.events[next] : nullptr;
      int rounds = 0;
      bool converged = false;
      while (rounds < spec.max_rounds) {
        if (pending && pending->trigger == scenario::Trigger::kAtRound &&
            global_round >= pending->round)
          break;
        const int moved = step();
        ++rounds;
        ++global_round;
        if (moved == 0) {
          converged = true;
          break;
        }
      }
      all_converged = all_converged && converged;
      o.node_rounds += static_cast<long long>(rounds) * w_.net->size();
      finalize();
      o.min_depth = verify_phase();
      phase_end_probes(/*verified=*/true);

      if (next >= spec.events.size()) break;
      const scenario::Event& ev = spec.events[next];
      if (ev.trigger == scenario::Trigger::kAtRound && global_round < ev.round)
        global_round = ev.round;
      const double before = L_.apply_event_s;
      timed(L_.apply_event_s, [&] {
        scenario::apply_event(w_, ev, static_cast<int>(next), global_round);
      });
      L_.events_s += L_.apply_event_s - before;
      ++L_.apply_event_calls;
      ++next;
      if (w_.net->size() < spec.k) {
        aborted = true;
        break;
      }
    }
    ++o.phases;
    o.solve_s = seconds_between(t0, Clock::now()) - (L_.probe_s - probe0);
    o.rounds = global_round;
    o.converged = all_converged;
    o.coverage_ok = !aborted && o.min_depth >= spec.k;
    return o;
  }

  /// Probe of scenario::apply_event for a workload without events: apply
  /// `ev` to the (already digested) final world.
  void probe_apply_event(const scenario::Event& ev) {
    timed(L_.apply_event_s, [&] { scenario::apply_event(w_, ev, 0, 0); });
    ++L_.apply_event_calls;
  }

 private:
  template <typename F>
  static void timed(double& acc, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    acc += seconds_between(t0, Clock::now());
  }

  template <typename F>
  void probe(double& acc, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double dt = seconds_between(t0, Clock::now());
    acc += dt;
    L_.probe_s += dt;
  }

  void begin_round() {
    wsn::Network& net = *w_.net;
    const Clock::time_point t0 = Clock::now();
    if (localized_) {
      // The provider would warm the grid first thing; doing it here splits
      // the rebuild out of begin_round without repeating it.
      const Clock::time_point g0 = Clock::now();
      net.warm_grid(pool_.get());
      L_.grid_s += seconds_between(g0, Clock::now());
      ++L_.grid_calls;
    }
    provider_->begin_round(net, w_.spec.k, epoch_++, pool_.get());
    L_.begin_round_s += seconds_between(t0, Clock::now());
    ++L_.begin_round_calls;
    if (!localized_) {
      // The global provider re-bins a grid of its own inside begin_round;
      // repeat the same rebuild to time it.
      probe(L_.grid_s, [&] {
        grid_probe_.rebuild(net.xs().data(), net.ys().data(),
                            static_cast<std::size_t>(net.size()),
                            std::max(net.gamma(), 1.0), pool_.get());
      });
      ++L_.grid_calls;
    }
  }

  /// Engine::step. Returns the number of nodes that moved.
  int step() {
    wsn::Network& net = *w_.net;
    const Clock::time_point t0 = Clock::now();
    const double probe0 = L_.probe_s;
    begin_round();
    const int n = net.size();
    const auto un = static_cast<std::size_t>(n);
    targets_.assign(un, {});
    has_target_.assign(un, 0);
    comm_.assign(un, {});
    t_compute_.assign(un, 0.0);
    t_region_.assign(un, 0.0);
    t_cheb_.assign(un, 0.0);
    t_rest_.assign(un, 0.0);

    const perf::KernelCounters before = perf::counters();
    const Clock::time_point f0 = Clock::now();
    common::parallel_for(pool_.get(), n, [&](int i) {
      const auto ui = static_cast<std::size_t>(i);
      const Clock::time_point a = Clock::now();
      core::RegionOutput out = provider_->compute(i);
      const Clock::time_point b = Clock::now();
      comm_[ui] = out.comm;
      const core::DominatingRegion region(out.cells, net.domain());
      const Clock::time_point c = Clock::now();
      t_compute_[ui] = seconds_between(a, b);
      t_region_[ui] = seconds_between(b, c);
      if (region.empty()) return;
      const geom::Circle cheb = region.chebyshev();
      const Clock::time_point d = Clock::now();
      t_cheb_[ui] = seconds_between(c, d);
      if (!cheb.valid()) return;
      targets_[ui] = cheb.center;
      has_target_[ui] = 1;
      (void)region.max_dist_from(net.position(i));
      t_rest_[ui] = seconds_between(d, Clock::now());
    });
    const Clock::time_point f1 = Clock::now();
    L_.kernel.add(perf::counters().diff(before));

    for (std::size_t i = 0; i < un; ++i) {
      L_.gather_requests += comm_[i].gather_requests;
      L_.node_reports += comm_[i].node_reports;
      L_.compute_us.push_back(1e6 * t_compute_[i]);
      L_.node_work_s += t_compute_[i] + t_region_[i] + t_cheb_[i] + t_rest_[i];
      L_.region_s += t_region_[i];
      ++L_.region_calls;
      if (t_cheb_[i] > 0.0) {
        L_.cheb_s += t_cheb_[i];
        ++L_.cheb_calls;
      }
    }

    // Synchronized movement, exactly as Engine::step.
    const double eps = w_.spec.epsilon;
    int moved = 0;
    for (int i = 0; i < n; ++i) {
      if (!has_target_[static_cast<std::size_t>(i)]) continue;
      const geom::Vec2 ui = net.position(i);
      const geom::Vec2 ci = targets_[static_cast<std::size_t>(i)];
      if (geom::dist(ui, ci) <= eps) continue;
      net.set_position(i, ui + (ci - ui) * w_.spec.alpha);
      const double actual = geom::dist(ui, net.position(i));
      if (actual > std::max(1e-6, 0.05 * eps)) ++moved;
    }
    const Clock::time_point t1 = Clock::now();
    L_.fanout_s += seconds_between(f0, f1);
    L_.tail_s += seconds_between(f1, t1);
    // The grid probe in begin_round() is not the step's time.
    L_.step_s += seconds_between(t0, t1) - (L_.probe_s - probe0);
    L_.node_rounds += n;
    return moved;
  }

  /// Engine::finalize.
  void finalize() {
    wsn::Network& net = *w_.net;
    const Clock::time_point t0 = Clock::now();
    provider_->begin_round(net, w_.spec.k, epoch_++, pool_.get());
    const int n = net.size();
    std::vector<double> ranges(static_cast<std::size_t>(n), 0.0);
    common::parallel_for(pool_.get(), n, [&](int i) {
      core::RegionOutput out = provider_->compute(i);
      const core::DominatingRegion region(out.cells, net.domain());
      if (!region.empty())
        ranges[static_cast<std::size_t>(i)] =
            region.max_dist_from(net.position(i));
    });
    for (int i = 0; i < n; ++i)
      net.set_sensing_range(i, ranges[static_cast<std::size_t>(i)]);
    L_.finalize_s += seconds_between(t0, Clock::now());
    ++L_.finalize_calls;
  }

  /// The scenario runner's per-phase verification; returns min depth.
  int verify_phase() {
    const wsn::Network& net = *w_.net;
    const Clock::time_point t0 = Clock::now();
    timed(L_.load_report_s, [&] { (void)wsn::load_report(net); });
    double rmax = 0.0;
    for (const double r : net.sensing_ranges()) rmax = std::max(rmax, r);
    int min_depth = 0;
    timed(L_.grid_cov_s, [&] {
      const cov::GridReport g = cov::grid_coverage(
          w_.domain(), cov::sensing_disks(net), w_.spec.grid_resolution,
          std::max(8, w_.spec.k));
      min_depth = g.min_depth;
      L_.grid_cov_samples += static_cast<double>(g.samples);
    });
    ++L_.grid_cov_calls;
    if (rmax > 0.0) {
      timed(L_.connectivity_s,
            [&] { (void)wsn::analyze_connectivity(net, 1.25 * rmax); });
      ++L_.connectivity_calls;
    }
    L_.verify_s += seconds_between(t0, Clock::now());
    return min_depth;
  }

  /// Probes at every phase end, on the deployment the phase delivered.
  void phase_end_probes(bool verified) {
    wsn::Network& net = *w_.net;
    if (!verified) {
      // Engine::run does not verify; time the runner's checks anyway.
      probe(L_.grid_cov_s, [&] {
        const cov::GridReport g = cov::grid_coverage(
            w_.domain(), cov::sensing_disks(net), w_.spec.grid_resolution,
            std::max(8, w_.spec.k));
        L_.grid_cov_samples += static_cast<double>(g.samples);
      });
      ++L_.grid_cov_calls;
      double rmax = 0.0;
      for (const double r : net.sensing_ranges()) rmax = std::max(rmax, r);
      probe(L_.connectivity_s,
            [&] { (void)wsn::analyze_connectivity(net, 1.25 * rmax); });
      ++L_.connectivity_calls;
    }
    probe(L_.boundary_s, [&] { (void)wsn::detect_all_boundaries(net); });
    ++L_.boundary_calls;
    std::unique_ptr<wsn::CommModel> comm;
    probe(L_.comm_build_s,
          [&] { comm = std::make_unique<wsn::CommModel>(net); });
    ++L_.comm_build_calls;
    // One gather per sampled node at a two-hop radius (the localized
    // provider's second ring), unbounded TTL as with ideal flooding.
    const int stride = std::max(1, net.size() / 64);
    for (int i = 0; i < net.size(); i += stride) {
      double dt = 0.0;
      probe(dt, [&] {
        wsn::CommStats st;
        (void)comm->gather(i, 2.0 * net.gamma(), -1, &st);
      });
      L_.gather_us.push_back(1e6 * dt);
    }
  }

  scenario::World& w_;
  Layers& L_;
  std::shared_ptr<core::RegionProvider> provider_;
  bool localized_;
  std::unique_ptr<common::ThreadPool> pool_;
  std::uint64_t epoch_ = 0;
  wsn::SpatialGrid grid_probe_;
  std::vector<geom::Vec2> targets_;
  std::vector<char> has_target_;
  std::vector<wsn::CommStats> comm_;
  std::vector<double> t_compute_, t_region_, t_cheb_, t_rest_;
};

void write_outcome(const char* kind, std::uint64_t seed, const Outcome& o,
                   JsonLine& j) {
  j.str("kind", kind)
      .integer("seed", static_cast<long long>(seed))
      .num("setup_s", o.setup_s)
      .num("solve_s", o.solve_s)
      .integer("rounds", o.rounds)
      .integer("phases", o.phases)
      .boolean("converged", o.converged)
      .boolean("coverage_ok", o.coverage_ok)
      .integer("min_depth", o.min_depth)
      .integer("node_rounds", o.node_rounds)
      .str("digest", o.digest);
}

double per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

void write_layers(const Layers& L, JsonLine& j) {
  const auto nr = static_cast<double>(L.node_rounds);
  const perf::KernelCounters& k = L.kernel;
  j.num("engine.step_us_per_nr", 1e6 * per(L.step_s, nr))
      .num("engine.finalize_ms", 1e3 * per(L.finalize_s, L.finalize_calls))
      .num("provider.begin_round_ms",
           1e3 * per(L.begin_round_s, L.begin_round_calls))
      .num("provider.compute_us.p50", percentile(L.compute_us, 0.50))
      .num("provider.compute_us.p99", percentile(L.compute_us, 0.99))
      .num("region.build_us",
           1e6 * per(L.region_s, static_cast<double>(L.region_calls)))
      .num("region.chebyshev_us",
           1e6 * per(L.cheb_s, static_cast<double>(L.cheb_calls)))
      .num("pool.efficiency", per(L.node_work_s, L.threads * L.fanout_s))
      .num("kernel.dist2_per_nr", per(static_cast<double>(k.dist2_evals), nr))
      .num("kernel.clips_per_nr", per(static_cast<double>(k.clip_calls), nr))
      .num("kernel.ring_allocs_per_nr",
           per(static_cast<double>(k.ring_allocs), nr))
      .num("kernel.cells_per_nr", per(static_cast<double>(k.cells_built), nr))
      .num("kernel.grid_queries_per_nr",
           per(static_cast<double>(k.grid_queries), nr))
      .num("kernel.fallbacks", static_cast<double>(k.kernel_fallbacks))
      .num("kernel.allocs_per_clip",
           per(static_cast<double>(k.ring_allocs),
               static_cast<double>(k.clip_calls)))
      .num("wsn.comm_build_ms", 1e3 * per(L.comm_build_s, L.comm_build_calls))
      .num("wsn.boundary_ms", 1e3 * per(L.boundary_s, L.boundary_calls))
      .num("wsn.gather_us.p50", percentile(L.gather_us, 0.50))
      .num("comm.gather_requests_per_node",
           per(static_cast<double>(L.gather_requests), nr))
      .num("comm.node_reports_per_node",
           per(static_cast<double>(L.node_reports), nr))
      .num("wsn.grid_rebuild_ms", 1e3 * per(L.grid_s, L.grid_calls))
      .num("wsn.connectivity_ms",
           1e3 * per(L.connectivity_s, L.connectivity_calls))
      .num("coverage.grid_ms", 1e3 * per(L.grid_cov_s, L.grid_cov_calls))
      .num("coverage.samples", per(L.grid_cov_samples, L.grid_cov_calls))
      .num("scenario.apply_event_ms",
           1e3 * per(L.apply_event_s, L.apply_event_calls))
      .num("scenario.build_world_ms",
           1e3 * per(L.build_world_s, L.build_world_calls));
  // Wall time of the replica's top-level spans (round stages, finalize,
  // verification, events) against its solve time: what no layer covers.
  // The global provider's grid probe is off the clock, and the localized
  // grid warm is inside begin_round, so the grid is not added again.
  // verify_s already holds the load report of a verified phase.
  const double accounted = L.begin_round_s + L.fanout_s + L.tail_s +
                           L.finalize_s +
                           (L.verify_s > 0.0 ? L.verify_s : L.load_report_s) +
                           L.events_s;
  j.num("trace.accounted_s", accounted)
      .num("trace.solve_s", L.solve_s)
      .num("trace.untraced_solve_s", L.untraced_solve_s);
}

}  // namespace

int run_batch(const BatchOptions& opt) {
  if (opt.solve != "engine" && opt.solve != "scenario")
    throw std::runtime_error("batch: --solve must be engine or scenario");
  Layers layers;
  std::unique_ptr<scenario::World> last_world;
  for (const std::uint64_t seed : opt.seeds) {
    const Outcome u = solve_untraced(opt, seed);
    JsonLine line;
    write_outcome("untraced", seed, u, line);
    std::printf("%s\n", line.text().c_str());
    if (!opt.trace) continue;

    const scenario::ScenarioSpec spec = load_spec(opt, seed);
    const Clock::time_point t0 = Clock::now();
    auto w = std::make_unique<scenario::World>(scenario::build_world(spec));
    layers.build_world_s += seconds_between(t0, Clock::now());
    ++layers.build_world_calls;
    TracedReplica replica(*w, layers);
    Outcome t = opt.solve == "engine" ? replica.run_engine()
                                       : replica.run_scenario();
    t.digest = network_digest(*w->net);
    if (opt.solve == "engine") {
      t.min_depth = cov::critical_point_coverage(w->domain(),
                                                 cov::sensing_disks(*w->net))
                        .min_depth;
      t.coverage_ok = t.min_depth >= spec.k;
      // Engine::run applies no event; time one on the final world.
      replica.probe_apply_event(
          scenario::parse_event_body("add_nodes count=1 deploy=uniform"));
    }
    layers.solve_s += t.solve_s;
    layers.untraced_solve_s += u.solve_s;
    JsonLine tl;
    write_outcome("traced", seed, t, tl);
    std::printf("%s\n", tl.text().c_str());
    last_world = std::move(w);
  }

  JsonLine summary;
  summary.str("kind", "summary")
      .num("peak_rss_mib",
           static_cast<double>(common::peak_rss_bytes()) / (1024.0 * 1024.0));
  if (opt.trace && last_world) {
    write_layers(layers, summary);
    serve_layer_probes(opt.serve_scn, opt.serve_wl, *last_world->net,
                       summary);
  }
  std::printf("%s\n", summary.text().c_str());
  return 0;
}

}  // namespace perfbench
