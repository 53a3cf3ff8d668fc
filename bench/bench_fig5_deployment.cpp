// Fig. 5 reproduction: 100 nodes start in the bottom-left corner of 1 km^2
// and LAACAD deploys them for k = 1..4 coverage. The paper's qualitative
// claim is an "even clustering" equilibrium: for k >= 2 nodes gather in
// groups of size k spread evenly over the area (pure even spread at k = 1).
// We quantify it: the cluster count at a co-location radius (connected
// components of the graph linking nodes closer than it), plus exact
// coverage verification. SVG snapshots accompany.
//
// Both sweeps run through the campaign engine and ship as
// campaigns/fig5_deployment.cmp and campaigns/fig5_clustered.cmp:
// declarative grids whose trials run on LAACAD_THREADS workers, with a
// probe hook lifting the final network state out of each trial for the
// cluster statistic and the SVGs.
// What used to be two hand-rolled k-loops is now proof that the campaign
// API subsumes this figure too. As with the fig6 port, each k is its own
// grid point with its own derived seed, so runs start from independently
// drawn corner clusters rather than one shared draw.
#include <fstream>

#include "bench_common.hpp"
#include "campaign/scheduler.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "scenario/runner.hpp"
#include "viz/render.hpp"
#include "wsn/connectivity.hpp"

namespace {

using namespace laacad;

// Both sweeps ARE the shipped campaigns — loaded from the source tree so
// the bench and campaigns/ can never drift apart.
campaign::CampaignSpec shipped_campaign(const char* file) {
  return campaign::load_campaign_file(std::string(LAACAD_SOURCE_DIR) +
                                      "/campaigns/" + file);
}

using benchutil::axis_value;

/// What the probe lifts out of each finished trial (per trial index).
struct ClusterRow {
  bool have = false;
  int nodes = 0;
  int clusters = 0;          ///< co-location clusters at 0.1 R*
  int verified_depth = 0;    ///< exact critical-point min coverage depth
};

/// `svg_prefix` null suppresses snapshots (the clustered-equilibrium sweep
/// renders none, so the corner sweep's fig5_k*.svg set stays intact).
campaign::CampaignResult run_with_probe(campaign::CampaignSpec spec,
                                        std::vector<ClusterRow>& rows,
                                        const char* svg_prefix,
                                        bool render_initial) {
  return benchutil::run_campaign_with_probe(
      std::move(spec), rows,
      [&rows, svg_prefix, render_initial](
          const campaign::TrialPoint& pt,
          const scenario::ScenarioRunner& runner,
          const scenario::ScenarioResult& result) {
        ClusterRow& row = rows[static_cast<std::size_t>(pt.trial)];
        const wsn::Network& net = runner.network();
        row.nodes = net.size();
        // Co-location radius: 10% of the final sensing range.
        row.clusters = wsn::analyze_connectivity(
                           net, 0.10 * result.phases.back().final_max_range)
                           .components;
        row.verified_depth =
            cov::critical_point_coverage(runner.domain(),
                                         cov::sensing_disks(net))
                .min_depth;
        if (svg_prefix) {
          viz::render_deployment(svg_prefix + axis_value(pt, "k") + ".svg",
                                 net);
        }
        if (render_initial && pt.trial == 0) {
          const wsn::Network start(&runner.domain(),
                                   result.initial_positions,
                                   result.resolved_gamma);
          viz::render_deployment("fig5_initial.svg", start);
        }
        row.have = true;
      });
}

void experiment() {
  std::vector<ClusterRow> rows;
  const campaign::CampaignResult result =
      run_with_probe(shipped_campaign("fig5_deployment.cmp"), rows, "fig5_k",
                     /*render_initial=*/true);

  TextTable table({"k", "rounds", "R* (m)", "min range (m)", "clusters",
                   "mean cluster size", "verified depth"});
  const std::size_t rounds_m = campaign::metric_index("total_rounds");
  const std::size_t rmax_m = campaign::metric_index("max_range");
  const std::size_t rmin_m = campaign::metric_index("min_range");
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const campaign::TrialResult& trial = result.trials[i];
    const ClusterRow& row = rows[i];
    if (!row.have) {  // trial threw or aborted: the probe never ran
      benchutil::TableSink::instance().note(
          "fig5 campaign trial FAILED — no figure produced: " +
          (trial.error.empty() ? "aborted" : trial.error));
      return;
    }
    const double mean_size = static_cast<double>(row.nodes) /
                             static_cast<double>(row.clusters);
    table.add_row({axis_value(result.points[i], "k"),
                   TextTable::num(trial.metrics[rounds_m], 0),
                   TextTable::num(trial.metrics[rmax_m], 2),
                   TextTable::num(trial.metrics[rmin_m], 2),
                   std::to_string(row.clusters),
                   TextTable::num(mean_size, 2),
                   std::to_string(row.verified_depth)});
  }
  benchutil::TableSink::instance().add(
      "Fig. 5 — corner start, 100 nodes, 1 km^2: final deployments",
      std::move(table));

  std::ofstream json("BENCH_campaign_fig5_deployment.json");
  if (json) result.write_json(json);
  benchutil::TableSink::instance().note(
      "campaign aggregates: BENCH_campaign_fig5_deployment.json");
}

// The paper reports an "even clustering" equilibrium (groups of k). Our
// exact implementation converges from generic starts to an equally good
// *staggered* equilibrium instead (see EXPERIMENTS.md); here we test
// whether the paper's clustered configuration is a fixed point: start from
// k-stacked groups (deploy stacked) and count the clusters LAACAD ends
// with. The printed verdict is derived from the rows, per k.
void clustered_experiment() {
  std::vector<ClusterRow> rows;
  const campaign::CampaignResult result = run_with_probe(
      shipped_campaign("fig5_clustered.cmp"), rows,
      /*svg_prefix=*/nullptr, /*render_initial=*/false);

  TextTable table({"k", "rounds", "R* (m)", "clusters (start)",
                   "clusters (end)", "mean cluster size (end)"});
  const std::size_t rounds_m = campaign::metric_index("total_rounds");
  const std::size_t rmax_m = campaign::metric_index("max_range");
  std::string kept, split;  // "k = K (start -> end)" per verdict
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const campaign::TrialResult& trial = result.trials[i];
    const ClusterRow& row = rows[i];
    if (!row.have) {
      benchutil::TableSink::instance().note(
          "fig5 clustered trial FAILED: " +
          (trial.error.empty() ? "aborted" : trial.error));
      return;
    }
    const int k = std::stoi(axis_value(result.points[i], "k"));
    // deploy stacked placed exactly groups * k nodes, so derive the start
    // count from the deployment itself rather than echoing the spec.
    const int groups = row.nodes / k;
    std::string& verdict = row.clusters == groups ? kept : split;
    verdict += std::string(verdict.empty() ? "" : ", ") + "k = " +
               std::to_string(k) + " (" + std::to_string(groups) + " -> " +
               std::to_string(row.clusters) + ")";
    table.add_row(
        {std::to_string(k), TextTable::num(trial.metrics[rounds_m], 0),
         TextTable::num(trial.metrics[rmax_m], 2), std::to_string(groups),
         std::to_string(row.clusters),
         TextTable::num(static_cast<double>(row.nodes) /
                            static_cast<double>(row.clusters),
                        2)});
  }
  benchutil::TableSink::instance().add(
      "Fig. 5 (clustered equilibrium) — clusters from a k-stacked start",
      std::move(table));
  benchutil::TableSink::instance().note(
      "Paper's claim: the 'even clustering' (groups of k) is an "
      "equilibrium. Started k-stacked here, the groups (clusters start -> "
      "end) persist at " +
      (kept.empty() ? std::string("no k") : kept) + " and split at " +
      (split.empty() ? std::string("no k") : split) +
      ": where they split, nodes drift toward the staggered optimum. From "
      "generic starts our exact implementation finds that staggered local "
      "optimum of comparable R* (both are local minima per Corollary 1). "
      "Pictures in fig5_initial.svg / fig5_k{1..4}.svg.");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::register_experiment("fig5/corner_deployment", experiment);
  benchutil::register_experiment("fig5/clustered_equilibrium",
                                 clustered_experiment);
  return benchutil::run_main(argc, argv);
}
