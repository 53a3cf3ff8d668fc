#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "common/rng.hpp"
#include "geometry/polygon.hpp"
#include "geometry/welzl.hpp"

namespace laacad::geom {
namespace {

TEST(Welzl, EmptyAndSingle) {
  EXPECT_FALSE(min_enclosing_circle({}).valid());
  Circle c = min_enclosing_circle({{3, 4}});
  EXPECT_EQ(c.center, Vec2(3, 4));
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
}

TEST(Welzl, TwoPoints) {
  Circle c = min_enclosing_circle({{0, 0}, {4, 0}});
  EXPECT_NEAR(c.center.x, 2.0, 1e-9);
  EXPECT_NEAR(c.radius, 2.0, 1e-9);
}

TEST(Welzl, EquilateralTriangle) {
  const double h = std::sqrt(3.0) / 2.0;
  Circle c = min_enclosing_circle({{0, 0}, {1, 0}, {0.5, h}});
  EXPECT_NEAR(c.radius, 1.0 / std::sqrt(3.0), 1e-9);
  EXPECT_NEAR(c.center.x, 0.5, 1e-9);
}

TEST(Welzl, ObtuseTriangleUsesLongestSide) {
  // For an obtuse triangle the MEC is the diameter circle of the long side.
  Circle c = min_enclosing_circle({{0, 0}, {10, 0}, {5, 0.5}});
  EXPECT_NEAR(c.radius, 5.0, 1e-6);
  EXPECT_NEAR(c.center.x, 5.0, 1e-6);
}

TEST(Welzl, SquareCircumcircle) {
  Circle c = min_enclosing_circle({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  EXPECT_NEAR(c.center.x, 1.0, 1e-9);
  EXPECT_NEAR(c.center.y, 1.0, 1e-9);
  EXPECT_NEAR(c.radius, std::sqrt(2.0), 1e-9);
}

TEST(Welzl, CollinearPoints) {
  Circle c = min_enclosing_circle({{0, 0}, {1, 0}, {2, 0}, {5, 0}});
  EXPECT_NEAR(c.radius, 2.5, 1e-9);
  EXPECT_NEAR(c.center.x, 2.5, 1e-9);
}

TEST(Welzl, DuplicatePoints) {
  Circle c = min_enclosing_circle({{1, 1}, {1, 1}, {1, 1}});
  EXPECT_NEAR(c.radius, 0.0, 1e-12);
}

TEST(Welzl, DeterministicAcrossCalls) {
  std::vector<Vec2> pts;
  laacad::Rng rng(3);
  for (int i = 0; i < 50; ++i)
    pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  Circle a = min_enclosing_circle(pts);
  Circle b = min_enclosing_circle(pts);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.radius, b.radius);
}

// Property sweep: for random point clouds the MEC (a) contains all points,
// (b) is supported by at least two points on its boundary, and (c) is no
// larger than a trivial bounding circle.
class WelzlProperty : public ::testing::TestWithParam<int> {};

TEST_P(WelzlProperty, ContainsAllAndTight) {
  laacad::Rng rng(1000 + GetParam());
  std::vector<Vec2> pts;
  const int n = 3 + rng.uniform_int(0, 200);
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});

  Circle c = min_enclosing_circle(pts);
  int on_boundary = 0;
  for (Vec2 p : pts) {
    const double d = dist(c.center, p);
    EXPECT_LE(d, c.radius + 1e-6 * (1.0 + c.radius));
    if (d >= c.radius - 1e-5 * (1.0 + c.radius)) ++on_boundary;
  }
  EXPECT_GE(on_boundary, 2);

  // Compare against a crude but valid enclosing circle (bbox circumcircle).
  BBox bb = bounding_box(pts);
  const double crude = 0.5 * std::hypot(bb.width(), bb.height());
  EXPECT_LE(c.radius, crude + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WelzlProperty, ::testing::Range(0, 25));

// Oracle: the construction with a freshly seeded engine shuffling the input
// on every call. min_enclosing_circle replaces that shuffle by a cached
// permutation for small inputs, which must move the points to exactly the
// same slots — so the circles agree bit for bit.
Circle mec_per_call_shuffle(std::vector<Vec2> points) {
  if (points.empty()) return Circle{{0, 0}, -1.0};
  if (points.size() == 1) return Circle{points[0], 0.0};
  std::mt19937_64 gen(0x5eed5eedULL ^ points.size());
  std::shuffle(points.begin(), points.end(), gen);
  const auto inside = [](const Circle& c, Vec2 p) {
    return c.valid() && dist(c.center, p) <= c.radius + 1e-7 * (1.0 + c.radius);
  };
  const auto from_3 = [](Vec2 a, Vec2 b, Vec2 c) {
    if (auto circ = circle_from_3(a, b, c)) return *circ;
    Circle best = circle_from_2(a, b);
    for (const Circle cand : {circle_from_2(a, c), circle_from_2(b, c)})
      if (cand.radius > best.radius) best = cand;
    return best;
  };
  Circle c{points[0], 0.0};
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (inside(c, points[i])) continue;
    c = Circle{points[i], 0.0};
    for (std::size_t j = 0; j < i; ++j) {
      if (inside(c, points[j])) continue;
      c = circle_from_2(points[i], points[j]);
      for (std::size_t l = 0; l < j; ++l) {
        if (inside(c, points[l])) continue;
        c = from_3(points[i], points[j], points[l]);
      }
    }
  }
  return c;
}

void expect_bit_equal(const Circle& a, const Circle& b, std::size_t n) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.center.x),
            std::bit_cast<std::uint64_t>(b.center.x)) << "n = " << n;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.center.y),
            std::bit_cast<std::uint64_t>(b.center.y)) << "n = " << n;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.radius),
            std::bit_cast<std::uint64_t>(b.radius)) << "n = " << n;
}

TEST(Welzl, BitEqualToPerCallShuffleAcrossCacheCap) {
  // Sizes 0..300 cross the cached-permutation cap; each size is called
  // twice so the second call reads the cache the first one filled.
  for (std::size_t n = 0; n <= 300; ++n) {
    laacad::Rng rng(7000 + n);
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
    const Circle want = mec_per_call_shuffle(pts);
    expect_bit_equal(min_enclosing_circle(pts), want, n);
    expect_bit_equal(min_enclosing_circle(pts), want, n);
  }
}

TEST(Welzl, BitEqualToPerCallShuffleOnRegionLikeInputs) {
  // Polygon vertex lists as the Chebyshev step passes them: points on a
  // circle plus near-duplicates and collinear runs, where the support set
  // (and so the result bits) depends on the visiting order.
  for (std::size_t n = 2; n <= 64; ++n) {
    laacad::Rng rng(9100 + n);
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i) {
      const double a = rng.uniform(0.0, 6.283185307179586);
      pts.push_back({std::cos(a) * 30.0, std::sin(a) * 30.0});
      if (i % 5 == 0) pts.push_back(pts.back() + Vec2{1e-9, 0.0});
      if (i % 7 == 0) pts.push_back({-30.0 + static_cast<double>(i), 0.0});
    }
    expect_bit_equal(min_enclosing_circle(pts), mec_per_call_shuffle(pts),
                     pts.size());
  }
}

}  // namespace
}  // namespace laacad::geom
