// Fig. 7 reproduction: sensing energy consumption (E(r) = pi r^2) of the
// final deployments while scaling the network size from 20 to 180 nodes in
// 1 km^2, for k = 1..4.
//   (a) maximum sensing load: decreases with N, grows ~k; the ratio between
//       the k1 and k2 curves is roughly k1/k2, because LAACAD balances loads
//       to E(r_i) ~ k |A| / N;
//   (b) total sensing load: decreases with N (less overlap waste), grows
//       with k.
//
// The (N x k) grid runs through the campaign engine on the shipped spec
// campaigns/fig7_energy.cmp: a two-axis declarative sweep spread across
// LAACAD_THREADS workers with per-trial derived seeds, instead of the old
// nested loops with `Rng rng(100 + n + k)` seed arithmetic (whose
// collisions — 100+60+3 == 100+59+4 — silently correlated supposedly
// independent runs).
#include <fstream>

#include "bench_common.hpp"
#include "campaign/scheduler.hpp"

namespace {

using namespace laacad;

void experiment() {
  campaign::CampaignOptions opt;
  opt.workers = benchutil::num_threads();
  campaign::CampaignScheduler scheduler(
      campaign::load_campaign_file(std::string(LAACAD_SOURCE_DIR) +
                                   "/campaigns/fig7_energy.cmp"),
      std::move(opt));
  const campaign::CampaignResult result = scheduler.run();

  const std::size_t max_m = campaign::metric_index("max_load");
  const std::size_t tot_m = campaign::metric_index("total_load");
  // Row-major grid: axis 0 (nodes) outermost, one group per k within each
  // size. The tables hard-code four k columns, so refuse a drifted sweep
  // instead of silently misaligning rows.
  if (result.spec.axes.size() != 2 || result.spec.axes[0].key != "nodes" ||
      result.spec.axes[1].values !=
          std::vector<std::string>{"1", "2", "3", "4"}) {
    benchutil::TableSink::instance().note(
        "fig7 sweep no longer matches the k=1..4 table layout — update the "
        "table columns alongside the spec");
    return;
  }
  const std::size_t kPerSize = result.spec.axes[1].values.size();

  TextTable max_table({"N", "k=1 max load", "k=2 max load", "k=3 max load",
                       "k=4 max load", "k2/k1", "k4/k2"});
  TextTable tot_table({"N", "k=1 total", "k=2 total", "k=3 total",
                       "k=4 total"});
  // Loads in units of 10^3 m^2 to keep the table readable.
  auto fmt = [](double v) { return TextTable::num(v / 1e3, 1); };
  for (std::size_t g = 0; g + kPerSize <= result.groups.size();
       g += kPerSize) {
    const std::string& n = result.groups[g].values[0].second;
    std::vector<double> maxload, total;
    for (std::size_t j = 0; j < kPerSize; ++j) {
      maxload.push_back(result.groups[g + j].metrics[max_m].mean);
      total.push_back(result.groups[g + j].metrics[tot_m].mean);
    }
    max_table.add_row({n, fmt(maxload[0]), fmt(maxload[1]), fmt(maxload[2]),
                       fmt(maxload[3]),
                       TextTable::num(maxload[1] / maxload[0], 2),
                       TextTable::num(maxload[3] / maxload[1], 2)});
    tot_table.add_row(
        {n, fmt(total[0]), fmt(total[1]), fmt(total[2]), fmt(total[3])});
  }
  benchutil::TableSink::instance().add(
      "Fig. 7(a) — maximum sensing load (10^3 m^2), 1 km^2",
      std::move(max_table));
  benchutil::TableSink::instance().add(
      "Fig. 7(b) — total sensing load (10^3 m^2), 1 km^2",
      std::move(tot_table));
  benchutil::TableSink::instance().note(
      "Paper's shape: max load falls as 1/N and scales ~k (ratio columns "
      "~2); total load decreases with N and increases with k.");

  std::ofstream json("BENCH_campaign_fig7_energy.json");
  if (json) result.write_json(json);
  benchutil::TableSink::instance().note(
      "campaign aggregates: BENCH_campaign_fig7_energy.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::register_experiment("fig7/energy", experiment);
  return benchutil::run_main(argc, argv);
}
