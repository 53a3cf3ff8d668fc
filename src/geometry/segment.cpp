#include "geometry/segment.hpp"

#include <algorithm>

namespace laacad::geom {

Vec2 closest_point_on_segment(Vec2 p, Vec2 a, Vec2 b) {
  const Vec2 ab = b - a;
  const double len2 = ab.norm2();
  if (len2 < kEps * kEps) return a;
  double t = dot(p - a, ab) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return a + ab * t;
}

double dist_point_segment(Vec2 p, Vec2 a, Vec2 b) {
  return dist(p, closest_point_on_segment(p, a, b));
}

bool within_segment_dist(Vec2 p, Vec2 a, Vec2 b, double eps) {
  return dist_leq(p, closest_point_on_segment(p, a, b), eps);
}

std::optional<Vec2> line_intersection(Vec2 p, Vec2 pd, Vec2 q, Vec2 qd,
                                      double eps) {
  const double denom = cross(pd, qd);
  if (std::abs(denom) < eps) return std::nullopt;
  const double t = cross(q - p, qd) / denom;
  return p + pd * t;
}

std::optional<Vec2> segment_intersection(Vec2 p1, Vec2 p2, Vec2 q1, Vec2 q2,
                                         double eps) {
  const Vec2 r = p2 - p1, s = q2 - q1;
  const double denom = cross(r, s);
  const Vec2 qp = q1 - p1;
  if (std::abs(denom) < eps) {
    // Parallel. Overlapping-collinear: report an endpoint that lies on the
    // other segment, if any.
    if (std::abs(cross(qp, r)) > eps) return std::nullopt;
    for (Vec2 cand : {q1, q2}) {
      if (within_segment_dist(cand, p1, p2, eps)) return cand;
    }
    for (Vec2 cand : {p1, p2}) {
      if (within_segment_dist(cand, q1, q2, eps)) return cand;
    }
    return std::nullopt;
  }
  const double t = cross(qp, s) / denom;
  const double u = cross(qp, r) / denom;
  // Tolerance relative to each segment's own parameterization.
  const double tp = eps / std::max(r.norm(), kEps);
  const double up = eps / std::max(s.norm(), kEps);
  if (t < -tp || t > 1.0 + tp || u < -up || u > 1.0 + up) return std::nullopt;
  return p1 + r * t;
}

}  // namespace laacad::geom
