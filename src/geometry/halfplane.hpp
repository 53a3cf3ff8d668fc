// Half-planes and perpendicular-bisector half-planes. The order-k Voronoi
// machinery expresses every cell as an intersection of bisector half-planes,
// so this is the innermost kernel of the whole reproduction.
#pragma once

#include "geometry/vec2.hpp"

namespace laacad::geom {

/// Closed half-plane { v : dot(v - point, normal) <= 0 } with `normal` of
/// unit length, so `signed_dist` is a distance in metres (negative inside).
struct HalfPlane {
  Vec2 point;    ///< Any point on the boundary line.
  Vec2 normal;   ///< Unit outward normal.

  /// Signed distance of v from the boundary; <= 0 means inside.
  double signed_dist(Vec2 v) const { return dot(v - point, normal); }

  bool contains(Vec2 v, double eps = kEps) const {
    return signed_dist(v) <= eps;
  }

  /// Direction along the boundary line (normal rotated -90 degrees, so the
  /// inside lies to the left of the direction of travel).
  Vec2 tangent() const { return {normal.y, -normal.x}; }
};

/// Half-plane of points at least as close to `keep` as to `other`
/// (the perpendicular bisector, keeping keep's side). Requires
/// keep != other; nearly coincident inputs are handled by the caller
/// (see voronoi::SiteSet degeneracy handling). Inline: the order-k kernel
/// builds one per (generator, candidate) pair.
inline HalfPlane bisector_halfplane(Vec2 keep, Vec2 other) {
  HalfPlane hp;
  hp.point = midpoint(keep, other);
  hp.normal = (other - keep).normalized();
  return hp;
}

}  // namespace laacad::geom
