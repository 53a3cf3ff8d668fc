#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "geometry/convex.hpp"
#include "laacad/localized.hpp"
#include "voronoi/adaptive.hpp"
#include "voronoi/sites.hpp"
#include "wsn/boundary.hpp"
#include "wsn/deployment.hpp"

namespace laacad::core {
namespace {

using geom::Vec2;

double cells_area(const std::vector<vor::OrderKCell>& cells) {
  double a = 0.0;
  for (const auto& c : cells) a += c.area();
  return a;
}

// The Algorithm 2 loop as it read with a hypot per distance and an
// unbounded closer count: the oracle for the squared-distance certificate.
LocalizedRegion hypot_oracle_region(const wsn::CommModel& comm, wsn::NodeId i,
                                    int k, const wsn::BoundaryInfo& boundary,
                                    const LocalizedConfig& cfg, Rng& rng) {
  LocalizedRegion out;
  const wsn::Network& net = comm.network();
  const wsn::Domain& domain = net.domain();
  const Vec2 ui = net.position(i);
  const double gamma = net.gamma();
  const double reach = cfg.network_reach_factor * gamma;
  const geom::BBox bbox = domain.bbox().inflated(1.0);
  std::vector<int> gathered;
  auto compute_cells = [&](double rho) {
    const auto rel = wsn::local_frame(net, i, gathered, cfg.frame, rng);
    std::vector<Vec2> sites;
    sites.push_back(ui);
    for (Vec2 r : rel) sites.push_back(ui + r);
    sites = vor::separate_sites(std::move(sites));
    const int k_eff = std::min<int>(k, static_cast<int>(sites.size()));
    geom::Ring win = geom::circumscribed_ngon(ui, rho / 2.0,
                                              cfg.disk_ngon_sides);
    const std::vector<geom::HalfPlane> walls = {
        {{bbox.hi.x, 0}, {1, 0}},
        {{bbox.lo.x, 0}, {-1, 0}},
        {{0, bbox.hi.y}, {0, 1}},
        {{0, bbox.lo.y}, {0, -1}},
    };
    win = geom::intersect_halfplanes(std::move(win), walls);
    return vor::dominating_region_cells(sites, 0, k_eff, win);
  };
  double rho = 0.0;
  int hops = 0;
  std::vector<vor::OrderKCell> cells;
  while (true) {
    rho += gamma;
    ++hops;
    if (hops > cfg.max_hops) {
      rho -= gamma;
      --hops;
      out.capped = true;
      if (rho > 0.0) cells = compute_cells(rho);
      break;
    }
    gathered = comm.gather(i, rho, cfg.ideal_gather ? -1 : hops + cfg.hop_slack,
                           nullptr);
    bool enclosed = true;
    for (int s = 0; s < cfg.arc_samples; ++s) {
      const double ang = 2.0 * M_PI * s / cfg.arc_samples;
      const Vec2 v = ui + Vec2{std::cos(ang), std::sin(ang)} * (rho / 2.0);
      if (!domain.contains(v)) continue;
      if (boundary.network_boundary) {
        bool inside_net = geom::dist(v, ui) <= reach;
        for (int j : gathered) {
          if (inside_net) break;
          inside_net = geom::dist(v, net.position(j)) <= reach;
        }
        if (!inside_net) continue;
      }
      int closer = 0;
      const double di = geom::dist(ui, v);
      for (int j : gathered) {
        if (geom::dist(net.position(j), v) < di) ++closer;
      }
      if (closer < k) {
        enclosed = false;
        break;
      }
    }
    if (!enclosed) continue;
    cells = compute_cells(rho);
    double maxd = 0.0;
    for (const auto& c : cells)
      for (Vec2 v : c.poly) maxd = std::max(maxd, geom::dist(ui, v));
    if (maxd < 0.5 * rho * (1.0 - 1e-9)) break;
  }
  out.rho = rho;
  out.hops = hops;
  for (vor::OrderKCell& c : cells) {
    for (int& g : c.gens)
      g = (g == 0) ? static_cast<int>(i)
                   : gathered[static_cast<std::size_t>(g) - 1];
    std::sort(c.gens.begin(), c.gens.end());
  }
  out.cells = std::move(cells);
  return out;
}

TEST(Localized, ArcCertificateMatchesHypotOracle) {
  // Uniform, clustered and lattice (exact distance ties) deployments on
  // convex and concave domains, interior and network-boundary verdicts, with
  // and without localization noise: the regions must be bit-equal.
  struct Case {
    wsn::Domain domain;
    std::vector<Vec2> pts;
    double gamma;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed : {181u, 182u, 183u}) {
    Rng rng(seed);
    wsn::Domain sq = wsn::Domain::rectangle(200, 200);
    cases.push_back({sq, wsn::deploy_uniform(sq, 90, rng), 35.0});
    wsn::Domain ls = wsn::Domain::lshape(240, 240);
    cases.push_back({ls, wsn::deploy_uniform(ls, 70, rng), 40.0});
  }
  {
    wsn::Domain sq = wsn::Domain::rectangle(200, 200);
    cases.push_back({sq, wsn::triangular_lattice(sq, 20.0), 22.0});
  }
  int compared = 0, boundary_nodes = 0;
  for (const Case& c : cases) {
    wsn::Network net(&c.domain, c.pts, c.gamma);
    const wsn::CommModel comm(net);
    const auto verdicts = wsn::detect_all_boundaries(net);
    for (int i = 0; i < net.size(); i += 3) {
      for (int k : {1, 2, 4}) {
        for (double noise : {0.0, 0.02}) {
          LocalizedConfig cfg;
          cfg.max_hops = 6;
          cfg.frame.range_noise = noise;
          wsn::BoundaryInfo binfo = verdicts[static_cast<std::size_t>(i)];
          if (i % 2 == 0) binfo.network_boundary = !binfo.network_boundary;
          boundary_nodes += binfo.network_boundary ? 1 : 0;
          Rng r1(1000 + i), r2(1000 + i);
          const LocalizedRegion got =
              localized_region(comm, i, k, binfo, cfg, nullptr, r1);
          const LocalizedRegion want =
              hypot_oracle_region(comm, i, k, binfo, cfg, r2);
          ASSERT_EQ(got.rho, want.rho) << "node " << i << " k=" << k;
          ASSERT_EQ(got.hops, want.hops) << "node " << i << " k=" << k;
          ASSERT_EQ(got.capped, want.capped) << "node " << i << " k=" << k;
          ASSERT_EQ(got.cells.size(), want.cells.size());
          for (std::size_t a = 0; a < got.cells.size(); ++a) {
            ASSERT_EQ(got.cells[a].gens, want.cells[a].gens);
            ASSERT_EQ(got.cells[a].poly, want.cells[a].poly);  // bitwise
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 1000);
  EXPECT_GT(boundary_nodes, 200);
}

TEST(Localized, InteriorNodeMatchesGlobalRegion) {
  // Regular-ish dense field: the localized region of an interior node must
  // equal the exact global region (Lemma 1 / Algorithm 2 equivalence).
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(61);
  wsn::Network net(&d, wsn::deploy_uniform(d, 120, rng), 30.0);
  const wsn::CommModel comm(net);
  ASSERT_TRUE(comm.connected());

  auto sites = vor::separate_sites(net.positions());
  const wsn::SpatialGrid grid(sites, 30.0);

  // Interior node: nearest to the center.
  const int i = grid.k_nearest({100, 100}, 1)[0];
  for (int k : {1, 2, 3}) {
    LocalizedConfig cfg;
    cfg.max_hops = 10;
    wsn::BoundaryInfo binfo;  // interior: not a boundary node
    Rng noise(1);
    auto local = localized_region(comm, i, k, binfo, cfg, nullptr, noise);
    EXPECT_FALSE(local.capped);

    auto global = vor::compute_dominating_region(sites, grid, i, k, d.bbox());
    // Compare region areas after clipping both to the domain.
    DominatingRegion lr(local.cells, d), gr(global.cells, d);
    ASSERT_FALSE(lr.empty());
    EXPECT_NEAR(lr.area(), gr.area(), 0.01 * gr.area() + 1e-6) << "k=" << k;
  }
}

TEST(Localized, HopsGrowWithK) {
  // Fig. 2's qualitative claim: higher coverage order needs a wider ring.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  auto pts = wsn::triangular_lattice(d, 20.0);
  wsn::Network net(&d, pts, 22.0);
  const wsn::CommModel comm(net);

  // Center-most node.
  int best = 0;
  double bd = 1e18;
  for (int i = 0; i < net.size(); ++i) {
    const double dd = geom::dist(net.position(i), {100, 100});
    if (dd < bd) {
      bd = dd;
      best = i;
    }
  }
  LocalizedConfig cfg;
  cfg.max_hops = 12;
  wsn::BoundaryInfo binfo;
  Rng noise(2);
  int prev_hops = 0;
  for (int k = 1; k <= 6; ++k) {
    auto res = localized_region(comm, best, k, binfo, cfg, nullptr, noise);
    EXPECT_GE(res.hops, prev_hops) << "k=" << k;
    prev_hops = res.hops;
  }
  EXPECT_GE(prev_hops, 2);  // k=6 requires multi-hop information
}

TEST(Localized, MessageAccountingAccumulates) {
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  Rng rng(62);
  wsn::Network net(&d, wsn::deploy_uniform(d, 40, rng), 25.0);
  const wsn::CommModel comm(net);
  LocalizedConfig cfg;
  wsn::CommStats stats;
  wsn::BoundaryInfo binfo;
  Rng noise(3);
  auto res = localized_region(comm, 0, 2, binfo, cfg, &stats, noise);
  EXPECT_FALSE(res.cells.empty());
  EXPECT_GE(stats.gather_requests, 1u);
  EXPECT_GE(stats.node_reports, 1u);
}

TEST(Localized, CappedBoundaryNodeRegionBoundedByRing) {
  // A corner-clustered deployment: boundary nodes hit the hop cap and the
  // searching ring bounds their region.
  wsn::Domain d = wsn::Domain::rectangle(1000, 1000);
  Rng rng(63);
  wsn::Network net(&d, wsn::deploy_corner(d, 40, rng), 40.0);
  const wsn::CommModel comm(net);
  LocalizedConfig cfg;
  cfg.max_hops = 3;
  wsn::BoundaryInfo binfo;
  binfo.network_boundary = true;
  Rng noise(4);
  // Pick the node farthest from the origin: on the cluster edge.
  int edge = 0;
  double bd = -1.0;
  for (int i = 0; i < net.size(); ++i) {
    const double dd = net.position(i).norm();
    if (dd > bd) {
      bd = dd;
      edge = i;
    }
  }
  auto res = localized_region(comm, edge, 1, binfo, cfg, nullptr, noise);
  // The ring stops either by the hop cap or by the restricted arc check
  // (Fig. 3); both ways the searching ring bounds the region.
  EXPECT_LE(res.hops, cfg.max_hops);
  const double ring = res.rho / 2.0 + 1.0;
  for (const auto& c : res.cells)
    for (Vec2 v : c.poly)
      EXPECT_LE(geom::dist(v, net.position(edge)), ring * 1.05);
}

TEST(Localized, EngineLocalizedBackendConvergesAndCovers) {
  // Full Algorithm 1 + Algorithm 2 stack on a connected uniform network.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(64);
  wsn::Network net(&d, wsn::deploy_uniform(d, 40, rng), 60.0);
  LaacadConfig cfg;
  cfg.k = 2;
  cfg.alpha = 0.8;
  cfg.epsilon = 1.0;
  cfg.max_rounds = 200;
  cfg.localized.max_hops = 8;
  cfg.retain_history = true;  // the comm assertion reads the first round
  cfg.provider = make_localized_provider(cfg.localized, cfg.seed);
  Engine engine(net, cfg);
  RunResult res = engine.run();
  EXPECT_TRUE(res.converged);
  const auto exact = cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, 2)
      << "witness at (" << exact.witness.x << ", " << exact.witness.y << ")";
  // Message accounting flowed into the round metrics.
  EXPECT_GT(res.history.front().comm.gather_requests, 0u);
}

TEST(Localized, RobustToMildRangingNoise) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(65);
  wsn::Network net(&d, wsn::deploy_uniform(d, 35, rng), 60.0);
  LaacadConfig cfg;
  cfg.k = 1;
  cfg.epsilon = 1.0;
  cfg.max_rounds = 200;
  cfg.localized.frame.range_noise = 0.02;  // 2% ranging error
  cfg.provider = make_localized_provider(cfg.localized, cfg.seed);
  Engine engine(net, cfg);
  RunResult res = engine.run();
  // Noisy localization distorts the computed regions, so exact coverage can
  // leak slightly at region seams; require near-complete coverage instead.
  (void)res;
  const auto grid = cov::grid_coverage(d, cov::sensing_disks(net), 1.0);
  EXPECT_GE(grid.fraction_at_least(1), 0.98);
}

TEST(Localized, FewerThanKNeighborsOwnsWholeRing) {
  // Two isolated nodes, k = 3: fewer than k sites in reach, so the region
  // defaults to the reachable window.
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  wsn::Network net(&d, {{50, 50}, {52, 50}}, 10.0);
  const wsn::CommModel comm(net);
  LocalizedConfig cfg;
  cfg.max_hops = 2;
  wsn::BoundaryInfo binfo;
  binfo.network_boundary = true;
  Rng noise(5);
  auto res = localized_region(comm, 0, 3, binfo, cfg, nullptr, noise);
  EXPECT_TRUE(res.capped);
  EXPECT_FALSE(res.cells.empty());
  EXPECT_GT(cells_area(res.cells), 1.0);
}

}  // namespace
}  // namespace laacad::core
