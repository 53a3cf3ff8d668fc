#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "geometry/vec2.hpp"

namespace laacad::geom {
namespace {

TEST(Vec2, ArithmeticOperators) {
  Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, Vec2(4.0, 1.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(2.0 * a, Vec2(2.0, 4.0));
  EXPECT_EQ(a / 2.0, Vec2(0.5, 1.0));
  EXPECT_EQ(-a, Vec2(-1.0, -2.0));
}

TEST(Vec2, CompoundAssignment) {
  Vec2 a{1.0, 1.0};
  a += {2.0, 3.0};
  EXPECT_EQ(a, Vec2(3.0, 4.0));
  a -= {1.0, 1.0};
  EXPECT_EQ(a, Vec2(2.0, 3.0));
  a *= 2.0;
  EXPECT_EQ(a, Vec2(4.0, 6.0));
}

TEST(Vec2, NormAndDistance) {
  Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(dist(Vec2{0, 0}, a), 5.0);
  EXPECT_DOUBLE_EQ(dist2(Vec2{0, 0}, a), 25.0);
}

TEST(Vec2, NormalizedUnitLength) {
  Vec2 a{3.0, 4.0};
  EXPECT_NEAR(a.normalized().norm(), 1.0, 1e-15);
  // Zero vector stays zero instead of dividing by zero.
  EXPECT_EQ(Vec2(0, 0).normalized(), Vec2(0, 0));
}

TEST(Vec2, DotAndCross) {
  Vec2 a{1.0, 0.0}, b{0.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cross(a, b), 1.0);
  EXPECT_DOUBLE_EQ(cross(b, a), -1.0);
}

TEST(Vec2, PerpIsCcwRotation) {
  Vec2 a{1.0, 0.0};
  EXPECT_EQ(a.perp(), Vec2(0.0, 1.0));
  EXPECT_NEAR(dot(a, a.perp()), 0.0, 1e-15);
}

TEST(Vec2, RotatedQuarterTurn) {
  Vec2 a{1.0, 0.0};
  Vec2 r = a.rotated(M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-15);
  EXPECT_NEAR(r.y, 1.0, 1e-15);
}

TEST(Vec2, AngleMatchesAtan2) {
  EXPECT_NEAR(Vec2(1, 1).angle(), M_PI / 4.0, 1e-15);
  EXPECT_NEAR(Vec2(-1, 0).angle(), M_PI, 1e-15);
}

TEST(Vec2, LerpAndMidpoint) {
  Vec2 a{0, 0}, b{10, 20};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), Vec2(5, 10));
  EXPECT_EQ(midpoint(a, b), Vec2(5, 10));
}

TEST(Orientation, BasicTurns) {
  EXPECT_EQ(orientation({0, 0}, {1, 0}, {1, 1}), 1);   // CCW
  EXPECT_EQ(orientation({0, 0}, {1, 0}, {1, -1}), -1); // CW
  EXPECT_EQ(orientation({0, 0}, {1, 0}, {2, 0}), 0);   // collinear
}

TEST(Orientation, EpsilonAbsorbsTinyPerturbation) {
  EXPECT_EQ(orientation({0, 0}, {1, 0}, {2, 1e-12}), 0);
}

TEST(AlmostEqual, Tolerance) {
  EXPECT_TRUE(almost_equal({1, 1}, {1 + 1e-10, 1 - 1e-10}));
  EXPECT_FALSE(almost_equal({1, 1}, {1 + 1e-6, 1}));
}

// ------------------------------------------ exact distance comparisons ----
//
// Oracles: the hypot expressions the helpers replace.

bool less_oracle(Vec2 a, Vec2 b, double r) { return dist(a, b) < r; }
bool leq_oracle(Vec2 a, Vec2 b, double r) { return dist(a, b) <= r; }

double max_dist_oracle(const std::vector<Vec2>& pts, Vec2 ref) {
  double m = 0.0;
  for (Vec2 v : pts) m = std::max(m, dist(ref, v));
  return m;
}

// Checks both helpers against the oracles for (a, b, r) and (b, a, r);
// returns the number of mismatches so that loops report one failure.
int comparison_mismatches(Vec2 a, Vec2 b, double r) {
  int bad = 0;
  for (const auto& [p, q] : {std::pair{a, b}, std::pair{b, a}}) {
    if (dist_less(p, q, r) != less_oracle(p, q, r)) {
      ++bad;
      ADD_FAILURE() << "dist_less" << p << q << " r=" << r;
    }
    if (dist_leq(p, q, r) != leq_oracle(p, q, r)) {
      ++bad;
      ADD_FAILURE() << "dist_leq" << p << q << " r=" << r;
    }
  }
  return bad;
}

// r = hypot(d) and its nextafter neighbours, plus points just inside and
// just outside the 1e-12 tie margin.
std::vector<double> tie_radii(double d) {
  std::vector<double> rs = {d, d * (1.0 - 1e-12), d * (1.0 + 1e-12),
                            d * (1.0 - 2e-12), d * (1.0 + 2e-12),
                            d * (1.0 - 1e-13), d * (1.0 + 1e-13)};
  double up = d, down = d;
  for (int step = 0; step < 4; ++step) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    rs.push_back(up);
    rs.push_back(down);
  }
  return rs;
}

TEST(DistCompare, MatchesHypotOnSeededRandomPairs) {
  laacad::Rng rng(1801);
  for (int t = 0; t < 20000; ++t) {
    const double scale = std::pow(10.0, rng.uniform(-6.0, 7.0));
    const Vec2 a{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    const Vec2 b{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    const double r = rng.uniform(0.0, 3.0 * scale);
    ASSERT_EQ(comparison_mismatches(a, b, r), 0) << "trial " << t;
  }
}

TEST(DistCompare, MatchesHypotOnNearTies) {
  // With r = hypot(d) and r one ulp away, the squared test alone is wrong
  // for a good share of pairs; only the near-tie fallback gets them right.
  laacad::Rng rng(1802);
  for (int t = 0; t < 20000; ++t) {
    const double scale = std::pow(10.0, rng.uniform(-4.0, 6.0));
    const Vec2 a{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    const Vec2 b{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    for (double r : tie_radii(dist(a, b)))
      ASSERT_EQ(comparison_mismatches(a, b, r), 0) << "trial " << t;
  }
}

TEST(DistCompare, MatchesHypotAtExtremeScales) {
  // Subnormal, tiny, huge (1e200-scale: d² overflows) and the range edges
  // of the squared path (r = 1e-100, 1e100).
  laacad::Rng rng(1803);
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (double scale : {denorm, 1e3 * denorm, 1e-310, 1e-160, 1e-110, 1e-100,
                       1e-99, 1e99, 1e100, 1e101, 1e150, 1e160, 1e200,
                       1e300}) {
    for (int t = 0; t < 200; ++t) {
      const Vec2 a{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
      const Vec2 b{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
      const double d = dist(a, b);
      std::vector<double> rs = tie_radii(d);
      for (double r : {0.0, -0.0, -1.0, -d, 1e-100, 1e100, 0.5 * scale, scale,
                       2.0 * scale, denorm})
        rs.push_back(r);
      for (double r : rs)
        ASSERT_EQ(comparison_mismatches(a, b, r), 0)
            << "scale " << scale << " trial " << t;
    }
  }
}

TEST(DistCompare, MatchesHypotOnZeroNegativeAndNonFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<Vec2> pts = {
      {0, 0},        {-0.0, 0},    {1, 2},         {denorm, 0},
      {0, -denorm},  {1e200, 0},   {1e200, 1e200}, {inf, 0},
      {-inf, 3},     {nan, 0},     {0, nan},       {nan, inf},
      {inf, nan},    {1e-200, 0}};
  const std::vector<double> radii = {0.0,   -0.0, -1.0,   denorm, 1e-300,
                                     1.0,   1e200, inf,   -inf,   nan};
  for (Vec2 a : pts)
    for (Vec2 b : pts)
      for (double r : radii) EXPECT_EQ(comparison_mismatches(a, b, r), 0);
}

TEST(DistCompare, ZeroRadiusIsExact) {
  // r == 0 is decided by dx == 0 && dy == 0: a subnormal offset is not 0.
  const double denorm = std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(dist_leq({1, 1}, {1, 1}, 0.0));
  EXPECT_FALSE(dist_less({1, 1}, {1, 1}, 0.0));
  EXPECT_FALSE(dist_leq({denorm, 0}, {0, 0}, 0.0));
  EXPECT_EQ(dist_sign({denorm, 0}, {0, 0}, 0.0), 1);
  EXPECT_EQ(dist_sign({1, 1}, {1, 1}, 0.0), 0);
}

TEST(MaxDist, MatchesHypotLoop) {
  laacad::Rng rng(1804);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int t = 0; t < 4000; ++t) {
    const double scale = std::pow(10.0, rng.uniform(-5.0, 6.0));
    const Vec2 ref{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    std::vector<Vec2> pts;
    const int n = rng.uniform_int(0, 60);
    const int shape = t % 4;
    for (int i = 0; i < n; ++i) {
      if (shape == 0) {  // scattered
        pts.push_back({rng.uniform(-scale, scale), rng.uniform(-scale, scale)});
      } else {  // regular n-gon around ref: every vertex a near tie
        const double ang = 2.0 * M_PI * i / n;
        pts.push_back(ref + Vec2{std::cos(ang), std::sin(ang)} * scale);
      }
    }
    if (shape == 2 && n > 0) pts.push_back(ref);  // a zero distance
    if (shape == 3 && n > 0) {                    // exact duplicates
      pts.push_back(pts.front());
      pts.push_back(pts.back());
    }
    const double got = max_dist(pts.begin(), pts.end(), ref);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(max_dist_oracle(pts, ref)))
        << "trial " << t;
  }
  // Non-finite and out-of-range squares take the plain loop.
  const Vec2 o{0, 0};
  for (const std::vector<Vec2>& pts : std::vector<std::vector<Vec2>>{
           {},
           {o},
           {{1e-160, 0}, {0, 2e-160}},
           {{1e200, 0}, {3, 4}},
           {{nan, inf}, {3, 4}},
           {{3, 4}, {nan, 0}, {1, 1}},
           {{std::numeric_limits<double>::denorm_min(), 0}}}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(max_dist(pts.begin(), pts.end(), o)),
              std::bit_cast<std::uint64_t>(max_dist_oracle(pts, o)));
  }
}

TEST(Vec2, StreamOutput) {
  std::ostringstream os;
  os << Vec2{1.5, -2.0};
  EXPECT_EQ(os.str(), "(1.5, -2)");
}

}  // namespace
}  // namespace laacad::geom
