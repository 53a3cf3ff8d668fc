// Sensor node model (Sec. III-A of the paper): omnidirectional disk sensing
// with a tunable range, a common transmission range, and motion capability.
// A node is its location u_i and sensing range r_i; both live in
// wsn::Network's arrays, indexed by the dense NodeId.
#pragma once

#include <cstdint>

namespace laacad::wsn {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

}  // namespace laacad::wsn
