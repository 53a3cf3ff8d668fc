// Segment utilities: distances, projections, and intersection tests.
#pragma once

#include <optional>

#include "geometry/vec2.hpp"

namespace laacad::geom {

struct Segment {
  Vec2 a;
  Vec2 b;

  double length() const { return dist(a, b); }
  Vec2 midpoint() const { return geom::midpoint(a, b); }
  Vec2 direction() const { return (b - a).normalized(); }
};

/// Closest point on segment [a,b] to p.
Vec2 closest_point_on_segment(Vec2 p, Vec2 a, Vec2 b);

/// Euclidean distance from p to segment [a,b].
double dist_point_segment(Vec2 p, Vec2 a, Vec2 b);

/// dist_point_segment(p, a, b) <= eps, bit for bit; calls hypot only on a
/// near tie (see dist_leq).
bool within_segment_dist(Vec2 p, Vec2 a, Vec2 b, double eps);

/// Intersection point of segments [p1,p2] and [q1,q2], if any (touching at an
/// endpoint counts). Collinear-overlap cases return one representative point.
std::optional<Vec2> segment_intersection(Vec2 p1, Vec2 p2, Vec2 q1, Vec2 q2,
                                         double eps = kEps);

/// Intersection of the infinite lines through (p, p+pd) and (q, q+qd);
/// nullopt when parallel within eps.
std::optional<Vec2> line_intersection(Vec2 p, Vec2 pd, Vec2 q, Vec2 qd,
                                      double eps = kEps);

}  // namespace laacad::geom
