#include "wsn/network.hpp"

#include <algorithm>

namespace laacad::wsn {

using geom::Vec2;

Network::Network(const Domain* domain, std::vector<Vec2> positions,
                 double gamma)
    : domain_(domain), gamma_(gamma) {
  const std::size_t n = positions.size();
  xs_.reserve(n);
  ys_.reserve(n);
  for (const Vec2& p : positions) {
    const Vec2 q = domain_->project_inside(p);
    xs_.push_back(q.x);
    ys_.push_back(q.y);
  }
  sense_.assign(n, 0.0);
}

std::vector<Vec2> Network::positions() const {
  std::vector<Vec2> out;
  out.reserve(xs_.size());
  for (std::size_t i = 0; i < xs_.size(); ++i)
    out.push_back(Vec2{xs_[i], ys_[i]});
  return out;
}

void Network::set_position(NodeId i, Vec2 p) {
  const Vec2 q = domain_->project_inside(p);
  xs_[static_cast<size_t>(i)] = q.x;
  ys_[static_cast<size_t>(i)] = q.y;
  grid_dirty_.store(true, std::memory_order_release);
}

void Network::set_sensing_range(NodeId i, double r) {
  sense_[static_cast<size_t>(i)] = r;
}

NodeId Network::add_node(Vec2 p) {
  const Vec2 q = domain_->project_inside(p);
  xs_.push_back(q.x);
  ys_.push_back(q.y);
  sense_.push_back(0.0);
  grid_dirty_.store(true, std::memory_order_release);
  return static_cast<NodeId>(xs_.size() - 1);
}

void Network::rebind_domain(const Domain* domain) {
  domain_ = domain;
  for (std::size_t j = 0; j < xs_.size(); ++j) {
    const Vec2 q = domain_->project_inside({xs_[j], ys_[j]});
    xs_[j] = q.x;
    ys_[j] = q.y;
  }
  grid_dirty_.store(true, std::memory_order_release);
}

void Network::remove_node(NodeId i) {
  xs_.erase(xs_.begin() + i);
  ys_.erase(ys_.begin() + i);
  sense_.erase(sense_.begin() + i);
  grid_dirty_.store(true, std::memory_order_release);
}

const SpatialGrid& Network::grid(common::ThreadPool* pool) const {
  // Double-checked rebuild: concurrent readers race only on the atomic flag;
  // the first one in re-bins in place (slot arrays reused round over round)
  // and publishes with a release store the others acquire.
  if (grid_dirty_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(grid_mutex_);
    if (grid_dirty_.load(std::memory_order_relaxed)) {
      // Cell size ~ gamma works for both comm queries and k-nearest. The
      // rebuild reads the SoA arrays directly — no positions() staging copy.
      grid_.rebuild(xs_.data(), ys_.data(), xs_.size(), std::max(gamma_, 1.0),
                    pool);
      grid_dirty_.store(false, std::memory_order_release);
    }
  }
  return grid_;
}

void Network::warm_grid(common::ThreadPool* pool) const { (void)grid(pool); }

std::vector<int> Network::nodes_within(Vec2 q, double radius) const {
  return grid().within(q, radius);
}

std::vector<int> Network::k_nearest(Vec2 q, int k, int exclude) const {
  return grid().k_nearest(q, k, exclude);
}

std::vector<int> Network::one_hop_neighbors(NodeId i) const {
  auto ids = grid().within(position(i), gamma_);
  std::erase(ids, static_cast<int>(i));
  return ids;
}

}  // namespace laacad::wsn
