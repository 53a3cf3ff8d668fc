// 2-D vector type and the basic predicates the rest of the geometry stack
// builds on. Coordinates are metres throughout the project.
#pragma once

#include <algorithm>
#include <cmath>
#include <iosfwd>

namespace laacad::geom {

/// Absolute tolerance (in metres) used by geometric predicates. Domains in
/// this project are at most a few kilometres across, so 1e-9 m leaves ~7
/// decimal digits of headroom above double precision.
inline constexpr double kEps = 1e-9;

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }
  Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }
  Vec2& operator-=(Vec2 o) { x -= o.x; y -= o.y; return *this; }
  Vec2& operator*=(double s) { x *= s; y *= s; return *this; }

  constexpr bool operator==(const Vec2&) const = default;

  double norm() const { return std::hypot(x, y); }
  constexpr double norm2() const { return x * x + y * y; }

  /// Unit vector in the same direction; returns (0,0) for the zero vector.
  /// Inline: the order-k kernel normalizes one bisector per candidate test.
  Vec2 normalized() const {
    const double n = norm();
    if (n < kEps) return {0.0, 0.0};
    return {x / n, y / n};
  }

  /// Counter-clockwise perpendicular (rotate by +90 degrees).
  constexpr Vec2 perp() const { return {-y, x}; }

  /// Rotate by `angle` radians counter-clockwise.
  Vec2 rotated(double angle) const;

  /// Angle of this vector in (-pi, pi], as given by atan2.
  double angle() const { return std::atan2(y, x); }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

constexpr double dot(Vec2 a, Vec2 b) { return a.x * b.x + a.y * b.y; }

/// z-component of the 3-D cross product; positive when b lies counter-
/// clockwise of a.
constexpr double cross(Vec2 a, Vec2 b) { return a.x * b.y - a.y * b.x; }

inline double dist(Vec2 a, Vec2 b) { return (a - b).norm(); }
constexpr double dist2(Vec2 a, Vec2 b) { return (a - b).norm2(); }

// ------------------------------------------- exact distance comparisons ----
//
// hypot costs about ten times sqrt(dx² + dy²), and most distances in the
// kernel only feed a comparison. The helpers below give the same answer as
// the hypot expression they replace for every input, without calling hypot
// unless the comparison is a near tie. dx² + dy² and r² each carry a few
// ulps of rounding error and hypot at most one ulp, so a relative margin of
// 1e-12 (thousands of ulps) between them decides the comparison. Squares
// are only trusted while they stay normal and finite: r in [1e-100, 1e100]
// and a finite d² (NaN and overflow included) — everything else falls back.

namespace detail {
inline constexpr double kTieMargin = 1e-12;
inline constexpr double kRLo = 1e-100, kRHi = 1e100;  // r with a normal r²
inline constexpr double kSqLo = 1e-200;  // d² below this: underflow zone
inline constexpr double kSqHi = 1e200;   // d² above this: overflow zone
}  // namespace detail

/// Sign of dist(a, b) - r decided from squared lengths: -1 or +1 when
/// certain, 0 when the caller must evaluate the hypot expression (a near
/// tie, or r outside [1e-100, 1e100], or a NaN / infinite d²). r == 0 is
/// decided exactly: +1 when a - b has a non-zero, non-NaN component.
inline int dist_sign(Vec2 a, Vec2 b, double r) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  if (r == 0.0) {
    if (std::isnan(dx) || std::isnan(dy)) return 0;
    return (dx != 0.0 || dy != 0.0) ? 1 : 0;
  }
  if (!(r >= detail::kRLo && r <= detail::kRHi)) return 0;
  const double d2 = dx * dx + dy * dy, r2 = r * r;
  if (d2 < r2 * (1.0 - detail::kTieMargin)) return -1;
  if (d2 > r2 * (1.0 + detail::kTieMargin)) return 1;
  return 0;
}

/// dist(a, b) < r, bit for bit.
inline bool dist_less(Vec2 a, Vec2 b, double r) {
  const int s = dist_sign(a, b, r);
  return s != 0 ? s < 0 : dist(a, b) < r;
}

/// dist(a, b) <= r, bit for bit.
inline bool dist_leq(Vec2 a, Vec2 b, double r) {
  const int s = dist_sign(a, b, r);
  return s != 0 ? s < 0 : dist(a, b) <= r;
}

/// The value of `m = 0; for v: m = std::max(m, dist(ref, v))` over
/// [first, last), bit for bit. hypot runs only on the points whose d² is
/// within the tie margin of the largest; any point further in cannot hold
/// the maximum. A NaN or out-of-range d² takes the plain loop.
template <class It>
double max_dist(It first, It last, Vec2 ref) {
  double m2 = 0.0;
  bool squares_ok = true;
  for (It it = first; it != last && squares_ok; ++it) {
    const double d2 = dist2(ref, *it);
    squares_ok = d2 <= detail::kSqHi;
    if (d2 > m2) m2 = d2;
  }
  double m = 0.0;
  if (squares_ok && m2 >= detail::kSqLo) {
    const double cut = m2 * (1.0 - detail::kTieMargin);
    for (It it = first; it != last; ++it)
      if (dist2(ref, *it) >= cut) m = std::max(m, dist(ref, *it));
    return m;
  }
  for (It it = first; it != last; ++it) m = std::max(m, dist(ref, *it));
  return m;
}

/// Linear interpolation a + t (b - a).
constexpr Vec2 lerp(Vec2 a, Vec2 b, double t) { return a + (b - a) * t; }

/// Midpoint of a and b.
constexpr Vec2 midpoint(Vec2 a, Vec2 b) { return (a + b) * 0.5; }

/// Orientation of the ordered triple (a, b, c): +1 for a counter-clockwise
/// turn, -1 for clockwise, 0 for (numerically) collinear.
int orientation(Vec2 a, Vec2 b, Vec2 c, double eps = kEps);

/// True when a and b coincide within `eps`. Inline: every clipped vertex
/// is checked against its predecessor.
inline bool almost_equal(Vec2 a, Vec2 b, double eps = kEps) {
  return std::abs(a.x - b.x) <= eps && std::abs(a.y - b.y) <= eps;
}

std::ostream& operator<<(std::ostream& os, Vec2 v);

}  // namespace laacad::geom
