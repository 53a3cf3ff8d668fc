// wsn::Network against a plain reference model, and parallel grid-rebuild
// determinism.
//
// The model is what the paper says a node is (Sec. III-A): a location and a
// sensing range, kept here as a std::vector<Vec2> of positions projected
// into the current domain and a std::vector<double> of ranges. Randomized
// mutation sequences (set_position, set_sensing_range, add_node,
// remove_node, rebind_domain, and queries that force lazy grid rebuilds)
// are applied to both, and after every step the Network must match the
// model bit for bit: add_node appends with range 0, remove_node shifts every
// higher id down by one, and every position is projected into the domain.
//
// The second half pins SpatialGrid's count-then-scatter parallel rebuild:
// the CSR arrays (order, cell_start, slot coordinates) must be bitwise
// identical for 1, 2, and 8 threads — including after add/remove churn —
// because everything downstream (candidate orders, k_nearest ties) reads
// slot order.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "wsn/deployment.hpp"
#include "wsn/network.hpp"
#include "wsn/spatial_grid.hpp"

namespace {

using namespace laacad;
using geom::Vec2;

struct Model {
  const wsn::Domain* domain;
  std::vector<Vec2> pos;
  std::vector<double> range;

  Model(const wsn::Domain* d, const std::vector<Vec2>& initial) : domain(d) {
    for (const Vec2& p : initial) pos.push_back(domain->project_inside(p));
    range.assign(pos.size(), 0.0);
  }
};

// Bitwise, so even -0.0 vs 0.0 or a NaN payload counts as a mismatch.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_matches(const wsn::Network& net, const Model& m,
                    const char* where) {
  const std::size_t n = m.pos.size();
  ASSERT_EQ(static_cast<std::size_t>(net.size()), n) << where;
  ASSERT_EQ(net.xs().size(), n) << where;
  ASSERT_EQ(net.ys().size(), n) << where;
  ASSERT_EQ(net.sensing_ranges().size(), n) << where;
  const auto pos = net.positions();
  ASSERT_EQ(pos.size(), n) << where;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<wsn::NodeId>(i);
    EXPECT_TRUE(same_bits(net.xs()[i], m.pos[i].x)) << where << " x i=" << i;
    EXPECT_TRUE(same_bits(net.ys()[i], m.pos[i].y)) << where << " y i=" << i;
    EXPECT_TRUE(same_bits(net.position(id).x, m.pos[i].x) &&
                same_bits(net.position(id).y, m.pos[i].y))
        << where << " position() i=" << i;
    EXPECT_TRUE(same_bits(pos[i].x, m.pos[i].x) &&
                same_bits(pos[i].y, m.pos[i].y))
        << where << " positions() i=" << i;
    EXPECT_TRUE(same_bits(net.sensing_ranges()[i], m.range[i]) &&
                same_bits(net.sensing_range(id), m.range[i]))
        << where << " range i=" << i;
  }
}

// Brute-force nodes_within over the model; the grid returns sorted ids.
std::vector<int> model_within(const Model& m, Vec2 q, double radius) {
  std::vector<int> out;
  for (std::size_t i = 0; i < m.pos.size(); ++i)
    if (geom::dist2(m.pos[i], q) <= radius * radius)
      out.push_back(static_cast<int>(i));
  return out;
}

TEST(NetworkSoA, ConstructionMirrorsPositions) {
  wsn::Domain domain = wsn::Domain::rectangle(500, 400);
  Rng rng(11);
  const auto initial = wsn::deploy_uniform(domain, 60, rng);
  wsn::Network net(&domain, initial, 80.0);
  expect_matches(net, Model(&domain, initial), "after construction");
}

TEST(NetworkSoA, EveryMutationPathStaysCoherent) {
  wsn::Domain square = wsn::Domain::rectangle(300, 300);
  wsn::Domain narrow = wsn::Domain::rectangle(200, 260);
  wsn::Domain holed = square.with_rect_hole({100, 100}, {180, 160});
  const wsn::Domain* domains[] = {&square, &narrow, &holed};
  Rng rng(29);
  const auto initial = wsn::deploy_uniform(square, 40, rng);
  wsn::Network net(&square, initial, 60.0);
  Model m(&square, initial);

  // Randomized mutation fuzz: pick a mutator, apply it to the network and
  // the model, compare. Covers interleavings (e.g. remove after a query
  // built the grid, move after a rebind) that single-mutator tests miss.
  for (int step = 0; step < 400; ++step) {
    const int n = net.size();
    ASSERT_GT(n, 0);
    const auto i = static_cast<wsn::NodeId>(rng.uniform_int(0, n - 1));
    const auto ui = static_cast<std::size_t>(i);
    switch (rng.uniform_int(0, 5)) {
      case 0: {
        const Vec2 p{rng.uniform(-50.0, 350.0), rng.uniform(-50.0, 350.0)};
        net.set_position(i, p);
        m.pos[ui] = m.domain->project_inside(p);
        break;
      }
      case 1: {
        const double r = rng.uniform(0.0, 120.0);
        net.set_sensing_range(i, r);
        m.range[ui] = r;
        break;
      }
      case 2: {
        const Vec2 p{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        EXPECT_EQ(net.add_node(p), static_cast<wsn::NodeId>(n));
        m.pos.push_back(m.domain->project_inside(p));
        m.range.push_back(0.0);
        break;
      }
      case 3:
        if (n > 8) {
          net.remove_node(i);
          m.pos.erase(m.pos.begin() + i);
          m.range.erase(m.range.begin() + i);
        }
        break;
      case 4: {
        m.domain = domains[rng.uniform_int(0, 2)];
        net.rebind_domain(m.domain);
        for (Vec2& p : m.pos) p = m.domain->project_inside(p);
        break;
      }
      case 5: {
        // Queries between mutations force lazy grid rebuilds mid-sequence;
        // their answers must match a scan of the model.
        const auto near = net.k_nearest(net.position(i), 3, i);
        EXPECT_LE(near.size(), 3u);
        const Vec2 q{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        EXPECT_EQ(net.nodes_within(q, 70.0), model_within(m, q, 70.0));
        break;
      }
    }
    expect_matches(net, m, "after mutation step");
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(NetworkSoA, RebindDomainMatchesReferenceModel) {
  wsn::Domain big = wsn::Domain::rectangle(1000, 1000);
  wsn::Domain small = wsn::Domain::rectangle(200, 200);
  Rng rng(7);
  const auto initial = wsn::deploy_uniform(big, 50, rng);
  wsn::Network net(&big, initial, 100.0);
  Model m(&big, initial);
  net.rebind_domain(&small);
  m.domain = &small;
  for (Vec2& p : m.pos) p = small.project_inside(p);
  expect_matches(net, m, "after rebind_domain");
  for (const Vec2& p : net.positions()) EXPECT_TRUE(small.contains(p));
}

// --------------------------------------------------------------------------
// Parallel rebuild determinism.

std::vector<Vec2> random_points(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
  return pts;
}

void expect_grids_identical(const wsn::SpatialGrid& a,
                            const wsn::SpatialGrid& b, const char* what) {
  ASSERT_EQ(a.order(), b.order()) << what;
  ASSERT_EQ(a.cell_start(), b.cell_start()) << what;
  ASSERT_EQ(a.slot_x().size(), b.slot_x().size()) << what;
  for (std::size_t i = 0; i < a.slot_x().size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.slot_x()[i], &b.slot_x()[i], sizeof(double)), 0)
        << what << " slot_x " << i;
    EXPECT_EQ(std::memcmp(&a.slot_y()[i], &b.slot_y()[i], sizeof(double)), 0)
        << what << " slot_y " << i;
  }
}

TEST(SpatialGridParallel, RebuildBitIdenticalAcrossThreadCounts) {
  // 6000 points exceeds the parallel-path threshold, so pooled rebuilds
  // really exercise count-then-scatter rather than falling back to serial.
  const auto pts = random_points(6000, 77);
  wsn::SpatialGrid serial(pts, 30.0);
  for (int threads : {1, 2, 8}) {
    common::ThreadPool pool(threads);
    wsn::SpatialGrid parallel;
    parallel.rebuild(pts, 30.0, &pool);
    expect_grids_identical(serial, parallel,
                           ("threads=" + std::to_string(threads)).c_str());
  }
}

TEST(SpatialGridParallel, RebuildBitIdenticalUnderChurn) {
  // Simulate the engine's real pattern: the same grid object re-binned
  // round after round while the point set mutates (moves, adds, removes).
  auto pts = random_points(5000, 123);
  Rng rng(5);
  common::ThreadPool pool2(2);
  common::ThreadPool pool8(8);
  wsn::SpatialGrid g_serial, g_two, g_eight;
  for (int round = 0; round < 5; ++round) {
    for (int m = 0; m < 200; ++m) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(pts.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          pts[idx] = {rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)};
          break;
        case 1:
          pts.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
          break;
        case 2:
          if (pts.size() > 4200) pts.erase(pts.begin() + static_cast<long>(idx));
          break;
      }
    }
    g_serial.rebuild(pts, 25.0);
    g_two.rebuild(pts, 25.0, &pool2);
    g_eight.rebuild(pts, 25.0, &pool8);
    expect_grids_identical(g_serial, g_two, "churn threads=2");
    expect_grids_identical(g_serial, g_eight, "churn threads=8");
  }
}

TEST(SpatialGridParallel, NetworkWarmGridMatchesQueries) {
  // warm_grid with a pool must produce the same query answers as the lazy
  // serial rebuild (slot order feeds k_nearest tie-breaks).
  wsn::Domain domain = wsn::Domain::rectangle(800, 800);
  Rng rng(41);
  const auto initial = wsn::deploy_uniform(domain, 5000, rng);
  wsn::Network lazy(&domain, initial, 40.0);
  wsn::Network warmed(&domain, initial, 40.0);
  common::ThreadPool pool(4);
  warmed.warm_grid(&pool);
  for (int probe = 0; probe < 50; ++probe) {
    const Vec2 q{rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)};
    EXPECT_EQ(lazy.k_nearest(q, 5), warmed.k_nearest(q, 5)) << probe;
    EXPECT_EQ(lazy.nodes_within(q, 60.0), warmed.nodes_within(q, 60.0))
        << probe;
  }
}

}  // namespace
