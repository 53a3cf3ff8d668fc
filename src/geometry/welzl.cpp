#include "geometry/welzl.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>

namespace laacad::geom {

namespace {

// Containment tolerance for the incremental construction: proportional to
// the circle size so kilometre-scale regions behave like unit-scale ones.
bool inside(const Circle& c, Vec2 p) {
  if (!c.valid()) return false;
  return dist_leq(c.center, p, c.radius + 1e-7 * (1.0 + c.radius));
}

Circle from_3_or_best_pair(Vec2 a, Vec2 b, Vec2 c) {
  if (auto circ = circle_from_3(a, b, c)) return *circ;
  // Near-collinear: the MEC of three collinear points is the diameter circle
  // of the farthest pair.
  Circle best = circle_from_2(a, b);
  for (const Circle cand : {circle_from_2(a, c), circle_from_2(b, c)}) {
    if (cand.radius > best.radius) best = cand;
  }
  return best;
}

// Fixed seed keeps runs reproducible while preserving the expected-linear
// behaviour of the move-to-front construction.
std::mt19937_64 shuffle_engine(std::size_t n) {
  return std::mt19937_64(0x5eed5eedULL ^ n);
}

// Sizes up to this bound reuse a cached shuffle permutation (at most
// ~64 KiB per thread once every size has been seen).
constexpr std::size_t kPermCacheMax = 256;

// std::shuffle's swap sequence depends only on the engine and the length,
// and the engine seed only on the length, so the shuffle of any n-point
// input is the fixed permutation obtained by shuffling iota(n). Caching it
// per thread skips the 312-word engine seeding on every call while moving
// the points to exactly the slots std::shuffle would.
const std::vector<std::uint16_t>& cached_permutation(std::size_t n) {
  thread_local std::vector<std::vector<std::uint16_t>> cache(kPermCacheMax + 1);
  std::vector<std::uint16_t>& perm = cache[n];
  if (perm.size() != n) {
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), std::uint16_t{0});
    std::mt19937_64 gen = shuffle_engine(n);
    std::shuffle(perm.begin(), perm.end(), gen);
  }
  return perm;
}

}  // namespace

Circle min_enclosing_circle(const std::vector<Vec2>& input) {
  if (input.empty()) return Circle{{0, 0}, -1.0};
  if (input.size() == 1) return Circle{input[0], 0.0};

  const std::size_t n = input.size();
  // Only the capped sizes use the per-thread buffer, so it stays bounded.
  thread_local std::vector<Vec2> small;
  std::vector<Vec2> large;
  std::vector<Vec2>& points = n <= kPermCacheMax ? small : large;
  if (n <= kPermCacheMax) {
    const std::vector<std::uint16_t>& perm = cached_permutation(n);
    points.resize(n);
    for (std::size_t i = 0; i < n; ++i) points[i] = input[perm[i]];
  } else {
    points.assign(input.begin(), input.end());
    std::mt19937_64 gen = shuffle_engine(n);
    std::shuffle(points.begin(), points.end(), gen);
  }

  Circle c{points[0], 0.0};
  for (std::size_t i = 1; i < n; ++i) {
    if (inside(c, points[i])) continue;
    c = Circle{points[i], 0.0};
    for (std::size_t j = 0; j < i; ++j) {
      if (inside(c, points[j])) continue;
      c = circle_from_2(points[i], points[j]);
      for (std::size_t l = 0; l < j; ++l) {
        if (inside(c, points[l])) continue;
        c = from_3_or_best_pair(points[i], points[j], points[l]);
      }
    }
  }
  return c;
}

}  // namespace laacad::geom
