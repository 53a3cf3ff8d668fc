// 2-D vector type and the basic predicates the rest of the geometry stack
// builds on. Coordinates are metres throughout the project.
#pragma once

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
