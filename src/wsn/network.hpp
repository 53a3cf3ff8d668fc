// The WSN itself: a set of mobile sensor nodes in a domain with a common
// transmission range gamma (Sec. III-A).
//
// Node i is its location u_i = (xs()[i], ys()[i]) and its sensing range
// r_i = sensing_ranges()[i]; ids are the dense indices 0..n-1. Each fact is
// stored once, in these parallel arrays, which the per-round hot loops —
// grid rebuilds, candidate dist² scans, range reductions — scan directly as
// contiguous doubles. Every mutation goes through the setters below (there
// is no mutable array accessor), so a position can never change behind the
// spatial index's back.
//
// Threading contract: the spatial index behind the const query methods
// (nodes_within / k_nearest / one_hop_neighbors) is built lazily after
// moves, guarded by a mutex with an atomic dirty flag, so any number of
// threads may issue const queries concurrently. Mutations (set_position,
// add_node, remove_node) must not overlap queries — the LAACAD round
// structure guarantees this (providers snapshot during the serial
// begin_round, the engine moves nodes in the serial reduction).
#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "wsn/domain.hpp"
#include "wsn/node.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::wsn {

class Network {
 public:
  /// Nodes are placed at `positions`; gamma is the (identical) transmission
  /// range. The domain is shared, not owned.
  Network(const Domain* domain, std::vector<geom::Vec2> positions,
          double gamma);

  int size() const { return static_cast<int>(xs_.size()); }
  const Domain& domain() const { return *domain_; }
  double gamma() const { return gamma_; }

  geom::Vec2 position(NodeId i) const {
    return {xs_[static_cast<size_t>(i)], ys_[static_cast<size_t>(i)]};
  }
  double sensing_range(NodeId i) const {
    return sense_[static_cast<size_t>(i)];
  }
  std::vector<geom::Vec2> positions() const;

  /// The node state itself, indexed by NodeId.
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }
  const std::vector<double>& sensing_ranges() const { return sense_; }

  /// Move node i (projected into the feasible domain); invalidates the grid.
  void set_position(NodeId i, geom::Vec2 p);
  void set_sensing_range(NodeId i, double r);

  /// Add a node at p; returns its id. Remove erases in place and shifts
  /// every higher id down by one (ids stay dense 0..n-1) — removal
  /// invalidates ids, so callers (the min-node planner, the scenario
  /// engine) use it only between full algorithm runs / redeployment phases.
  NodeId add_node(geom::Vec2 p);
  void remove_node(NodeId i);

  /// Swap the domain (boundary resize, new obstacle) and reproject every
  /// node into it. The new domain is shared, not owned — the caller keeps it
  /// alive for the network's lifetime. Invalidates the grid.
  void rebind_domain(const Domain* domain);

  /// Spatial queries over *current* positions (grid re-binned lazily after
  /// moves). Safe to call from multiple threads concurrently; see the
  /// threading contract above.
  std::vector<int> nodes_within(geom::Vec2 q, double radius) const;
  std::vector<int> k_nearest(geom::Vec2 q, int k, int exclude = -1) const;
  /// One-hop neighbours N(n_i): nodes within gamma, excluding i itself.
  std::vector<int> one_hop_neighbors(NodeId i) const;

  /// Force the lazy grid up to date now (e.g. before handing the network to
  /// concurrent readers, to keep the first query from paying the rebuild).
  /// A non-null `pool` fans the re-bin across its threads (bit-identical
  /// result; see SpatialGrid::rebuild) — the engine passes its round pool so
  /// index maintenance is not a serial O(n) wall at scale. The pool is used
  /// only for this call, never retained.
  void warm_grid(common::ThreadPool* pool = nullptr) const;

 private:
  const SpatialGrid& grid(common::ThreadPool* pool = nullptr) const;

  const Domain* domain_;
  double gamma_;
  std::vector<double> xs_, ys_, sense_;
  mutable SpatialGrid grid_;
  mutable std::atomic<bool> grid_dirty_{true};
  mutable std::mutex grid_mutex_;
};

}  // namespace laacad::wsn
