// Determinism property of the parallel round loop: for both region
// providers, the engine must produce bit-identical trajectories and
// per-round metrics for num_threads in {1, 2, 8}. This is the contract that
// makes the thread count a pure performance knob.
#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.hpp"
#include "geometry/welzl.hpp"
#include "laacad/engine.hpp"
#include "laacad/localized.hpp"
#include "laacad/region_provider.hpp"
#include "voronoi/sites.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"
#include "wsn/deployment.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::core {
namespace {

using geom::Vec2;

struct RunRecord {
  std::vector<RoundMetrics> history;
  std::vector<Vec2> final_positions;
  std::vector<double> final_ranges;
};

RunRecord run_engine(const wsn::Domain& domain,
                     const std::vector<Vec2>& initial, double gamma,
                     LaacadConfig cfg) {
  wsn::Network net(&domain, initial, gamma);
  cfg.retain_history = true;  // the comparison walks the full round record
  Engine engine(net, cfg);
  RunRecord rec;
  RunResult res = engine.run();
  rec.history = std::move(res.history);
  rec.final_positions = net.positions();
  rec.final_ranges = net.sensing_ranges();
  return rec;
}

void expect_bit_identical(const RunRecord& a, const RunRecord& b,
                          int threads) {
  ASSERT_EQ(a.history.size(), b.history.size()) << "threads=" << threads;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    const RoundMetrics& ma = a.history[r];
    const RoundMetrics& mb = b.history[r];
    EXPECT_EQ(ma.round, mb.round);
    // Exact double equality on purpose: any reordering of the reduction
    // would show up here as a ULP difference.
    EXPECT_EQ(ma.max_circumradius, mb.max_circumradius)
        << "round " << ma.round << " threads=" << threads;
    EXPECT_EQ(ma.min_circumradius, mb.min_circumradius);
    EXPECT_EQ(ma.max_hat_radius, mb.max_hat_radius);
    EXPECT_EQ(ma.max_move, mb.max_move);
    EXPECT_EQ(ma.moved, mb.moved);
    EXPECT_EQ(ma.comm.gather_requests, mb.comm.gather_requests);
    EXPECT_EQ(ma.comm.node_reports, mb.comm.node_reports);
    EXPECT_EQ(ma.comm.max_hops_used, mb.comm.max_hops_used);
  }
  ASSERT_EQ(a.final_positions.size(), b.final_positions.size());
  for (std::size_t i = 0; i < a.final_positions.size(); ++i) {
    EXPECT_EQ(a.final_positions[i].x, b.final_positions[i].x)
        << "node " << i << " threads=" << threads;
    EXPECT_EQ(a.final_positions[i].y, b.final_positions[i].y);
    EXPECT_EQ(a.final_ranges[i], b.final_ranges[i]);
  }
}

TEST(ParallelDeterminism, GlobalProviderIdenticalAcrossThreadCounts) {
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(42);
  const auto initial = wsn::deploy_uniform(d, 40, rng);

  LaacadConfig base;
  base.k = 2;
  base.epsilon = 1.0;
  base.max_rounds = 60;

  LaacadConfig serial = base;
  serial.num_threads = 1;
  const RunRecord reference = run_engine(d, initial, 90.0, serial);
  ASSERT_FALSE(reference.history.empty());

  for (int threads : {2, 8}) {
    LaacadConfig cfg = base;
    cfg.num_threads = threads;
    const RunRecord parallel = run_engine(d, initial, 90.0, cfg);
    expect_bit_identical(reference, parallel, threads);
  }
}

TEST(ParallelDeterminism, LocalizedProviderIdenticalAcrossThreadCounts) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(43);
  const auto initial = wsn::deploy_uniform(d, 30, rng);

  LaacadConfig base;
  base.k = 2;
  base.epsilon = 1.0;
  base.max_rounds = 60;
  base.localized.max_hops = 8;
  // Noise on: exercises the per-(epoch, node) RNG streams, the part of the
  // localized provider that would break first under a shared generator.
  base.localized.frame.range_noise = 0.01;

  LaacadConfig serial = base;
  serial.num_threads = 1;
  serial.provider = make_localized_provider(serial.localized, serial.seed);
  const RunRecord reference = run_engine(d, initial, 60.0, serial);
  ASSERT_FALSE(reference.history.empty());

  for (int threads : {2, 4, 8}) {
    LaacadConfig cfg = base;
    cfg.num_threads = threads;
    cfg.provider = make_localized_provider(cfg.localized, cfg.seed);
    const RunRecord parallel = run_engine(d, initial, 60.0, cfg);
    expect_bit_identical(reference, parallel, threads);
  }
}

TEST(ParallelDeterminism, HardwareThreadCountAlsoIdentical) {
  // num_threads = 0 (auto) must land on the same trajectory too.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(44);
  const auto initial = wsn::deploy_uniform(d, 25, rng);

  LaacadConfig base;
  base.k = 1;
  base.epsilon = 1.0;
  base.max_rounds = 40;

  LaacadConfig serial = base;
  serial.num_threads = 1;
  const RunRecord reference = run_engine(d, initial, 70.0, serial);

  LaacadConfig autocfg = base;
  autocfg.num_threads = 0;
  const RunRecord parallel = run_engine(d, initial, 70.0, autocfg);
  expect_bit_identical(reference, parallel, 0);
}

TEST(ParallelDeterminism, KernelQueryCachesAreThreadSafe) {
  // min_enclosing_circle keeps its shuffle permutations and point buffer
  // per thread, and the k-nearest queries their candidate buffers; pool
  // workers calling them concurrently must reproduce the serial answers
  // exactly (and run clean under TSan).
  Rng rng(51);
  std::vector<Vec2> sites;
  for (int i = 0; i < 400; ++i)
    sites.push_back({rng.uniform(0, 300), rng.uniform(0, 300)});
  const wsn::SpatialGrid grid(sites, 20.0);

  constexpr int kQueries = 600;
  struct Answer {
    geom::Circle mec;
    std::vector<int> grid_knn, brute_knn;
  };
  auto answer = [&](int q) {
    // Sizes 0..299 straddle the cached-permutation cap (256).
    std::vector<Vec2> pts(sites.begin(), sites.begin() + (q * 7) % 300);
    const Vec2 probe{static_cast<double>(q % 31) * 11.0 - 20.0,
                     static_cast<double>(q % 17) * 19.0 - 10.0};
    const int k = 1 + q % 9;
    return Answer{geom::min_enclosing_circle(pts),
                  grid.k_nearest(probe, k, /*exclude=*/q % 400),
                  vor::k_nearest_brute(sites, probe, k)};
  };

  std::vector<Answer> serial;
  for (int q = 0; q < kQueries; ++q) serial.push_back(answer(q));
  for (const int threads : {2, 4}) {
    common::ThreadPool pool(threads);
    std::vector<Answer> parallel(kQueries);
    pool.run(kQueries, [&](int q) {
      parallel[static_cast<std::size_t>(q)] = answer(q);
    });
    for (int q = 0; q < kQueries; ++q) {
      const Answer& want = serial[static_cast<std::size_t>(q)];
      const Answer& got = parallel[static_cast<std::size_t>(q)];
      EXPECT_EQ(got.mec.center.x, want.mec.center.x) << "q=" << q;
      EXPECT_EQ(got.mec.center.y, want.mec.center.y) << "q=" << q;
      EXPECT_EQ(got.mec.radius, want.mec.radius) << "q=" << q;
      EXPECT_EQ(got.grid_knn, want.grid_knn) << "q=" << q;
      EXPECT_EQ(got.brute_knn, want.brute_knn) << "q=" << q;
    }
  }
}

TEST(ParallelDeterminism, LocalizedArcTableIsThreadSafe) {
  // localized_region keeps its arc-sample unit vectors per thread and
  // rebuilds them when the sample count changes; pool workers alternating
  // sample counts must reproduce the serial regions exactly (and run clean
  // under TSan).
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(52);
  wsn::Network net(&d, wsn::deploy_uniform(d, 60, rng), 40.0);
  const wsn::CommModel comm(net);
  const std::vector<wsn::BoundaryInfo> verdicts =
      wsn::detect_all_boundaries(net);

  constexpr int kQueries = 240;
  auto answer = [&](int q) {
    LocalizedConfig cfg;
    cfg.max_hops = 6;
    cfg.arc_samples = q % 3 == 0 ? 72 : (q % 3 == 1 ? 36 : 90);
    const int i = q % net.size();
    Rng noise(static_cast<std::uint64_t>(q));
    return localized_region(comm, i, 1 + q % 3,
                            verdicts[static_cast<std::size_t>(i)], cfg,
                            nullptr, noise);
  };

  std::vector<LocalizedRegion> serial;
  for (int q = 0; q < kQueries; ++q) serial.push_back(answer(q));
  for (const int threads : {2, 4}) {
    common::ThreadPool pool(threads);
    std::vector<LocalizedRegion> parallel(kQueries);
    pool.run(kQueries, [&](int q) {
      parallel[static_cast<std::size_t>(q)] = answer(q);
    });
    for (int q = 0; q < kQueries; ++q) {
      const LocalizedRegion& want = serial[static_cast<std::size_t>(q)];
      const LocalizedRegion& got = parallel[static_cast<std::size_t>(q)];
      EXPECT_EQ(got.rho, want.rho) << "q=" << q << " threads=" << threads;
      EXPECT_EQ(got.hops, want.hops) << "q=" << q;
      ASSERT_EQ(got.cells.size(), want.cells.size()) << "q=" << q;
      for (std::size_t c = 0; c < want.cells.size(); ++c) {
        EXPECT_EQ(got.cells[c].gens, want.cells[c].gens) << "q=" << q;
        EXPECT_EQ(got.cells[c].poly, want.cells[c].poly) << "q=" << q;
      }
    }
  }
}

}  // namespace
}  // namespace laacad::core
