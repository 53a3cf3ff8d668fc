#include "wsn/energy.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace laacad::wsn {

double sensing_energy(double range) { return M_PI * range * range; }

std::vector<double> sensing_loads(const Network& net) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(net.size()));
  for (const double r : net.sensing_ranges()) out.push_back(sensing_energy(r));
  return out;
}

LoadReport load_report(const Network& net) {
  LoadReport rep;
  const auto loads = sensing_loads(net);
  if (loads.empty()) return rep;
  const Summary s = summarize(loads);
  rep.max_load = s.max();
  rep.min_load = s.min();
  rep.total_load = s.sum();
  rep.fairness = jain_fairness(loads);
  return rep;
}

}  // namespace laacad::wsn
