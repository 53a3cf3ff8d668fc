#include "geometry/vec2.hpp"

#include <ostream>

namespace laacad::geom {

Vec2 Vec2::rotated(double angle) const {
  const double c = std::cos(angle), s = std::sin(angle);
  return {x * c - y * s, x * s + y * c};
}

int orientation(Vec2 a, Vec2 b, Vec2 c, double eps) {
  const double v = cross(b - a, c - a);
  if (v > eps) return 1;
  if (v < -eps) return -1;
  return 0;
}

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}

}  // namespace laacad::geom
