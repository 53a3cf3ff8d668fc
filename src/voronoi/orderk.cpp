#include "voronoi/orderk.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <utility>

#include "common/perf_counters.hpp"
#include "geometry/halfplane.hpp"
#include "voronoi/sites.hpp"

namespace laacad::vor {

using geom::HalfPlane;
using geom::Ring;
using geom::Vec2;

namespace {

// Probe offset used to identify the generator set across a cell edge:
// relative to the local geometry scale.
double probe_delta(const Ring& cell) {
  const geom::BBox bb = geom::bounding_box(cell);
  return 1e-6 * (1.0 + std::max(bb.width(), bb.height()));
}

// ---------------------------------------------------------- cell engine ----
//
// One order-k cell is the window clipped against bisectors with out-sites
// taken in ascending distance from the reference generator, with the Lemma
// pruning bound ending the scan early. The brute and grid paths share this
// machinery; they differ only in how the candidate list is produced.

// Reusable per-BFS scratch: ping-pong clip rings plus the candidate buffer.
// Eliminates the ring allocation per half-plane clip (and the candidate
// vector per cell) the old kernel paid.
struct CellScratch {
  Ring cur, next;
  std::vector<std::pair<double, int>> cand;  // (dist2 to ref, site index)
};

struct CellState {
  Vec2 ref;          // first generator: reference for ordering and pruning
  double dmax_h = 0; // max distance from ref to any generator
  double rv = 0;     // max distance from ref to any current cell vertex
};

// Max distance from a reference site to the window's vertices. Every cell
// of one BFS starts from the same window, and seen from its centre the
// circumscribed n-gon's vertices are all near ties, which geom::max_dist
// settles with one hypot each; so the value is kept per reference site
// (a dominating-region BFS sees few of them, the localized one only its
// own node).
class WindowReach {
 public:
  explicit WindowReach(const Ring& window) : window_(window) {}

  double from(int site, Vec2 ref) {
    for (const auto& [s, rv] : seen_)
      if (s == site) return rv;
    const double rv = geom::max_dist(window_.begin(), window_.end(), ref);
    if (seen_.size() < kMaxSites) seen_.emplace_back(site, rv);
    return rv;
  }

 private:
  static constexpr std::size_t kMaxSites = 16;
  const Ring& window_;
  std::vector<std::pair<int, double>> seen_;
};

// Load the window into scratch.cur and derive the pruning state. Returns
// false when the cell is trivially empty.
bool init_cell(const std::vector<Vec2>& sites, const std::vector<int>& gens,
               const Ring& window, WindowReach& reach, CellScratch& s,
               CellState& st) {
  s.cur.assign(window.begin(), window.end());
  if (s.cur.size() < 3 || gens.empty()) {
    s.cur.clear();
    return false;
  }
  st.ref = sites[static_cast<std::size_t>(gens.front())];
  st.dmax_h = 0.0;
  for (int h : gens)
    st.dmax_h =
        std::max(st.dmax_h, geom::dist(sites[static_cast<std::size_t>(h)], st.ref));
  st.rv = reach.from(gens.front(), st.ref);
  perf::counters().dist2_evals += gens.size() + s.cur.size();
  return true;
}

// The Lemma pruning test dist(uj, ref) - rv > rv + dmax_h. Compared as
// dist(uj, ref) against rv + (rv + dmax_h), the 1e-12 tie margin of
// geom::dist_sign also swamps the rounding of the sum and the difference,
// so a decided sign is the test's answer; near ties evaluate it as written.
bool beyond_bound(Vec2 uj, const CellState& st) {
  const double lim = st.rv + st.dmax_h;
  const int sign = geom::dist_sign(uj, st.ref, st.rv + lim);
  if (sign != 0) return sign > 0;
  return geom::dist(uj, st.ref) - st.rv > lim;
}

// Clip scratch.cur against the out-sites cand[from..to) (in the order
// given; both paths supply ascending (dist2, index)). Returns true when the
// scan stopped early — the pruning bound fired or the cell emptied — which
// proves no out-site later in the canonical order can cut the cell.
bool clip_against(const std::vector<Vec2>& sites, const std::vector<int>& gens,
                  const std::vector<std::pair<double, int>>& cand,
                  std::size_t from, std::size_t to, CellScratch& s,
                  CellState& st) {
  auto& pc = perf::counters();
  for (std::size_t a = from; a < to; ++a) {
    if (s.cur.empty()) return true;
    const Vec2 uj = sites[static_cast<std::size_t>(cand[a].second)];
    // Pruning: for any v in the cell, dist(v, u_j) >= |u_j - ref| - rv and
    // dist(v, u_h) <= rv + dmax_h. If the former exceeds the latter for the
    // nearest remaining out-site, no later out-site can cut either.
    ++pc.dist2_evals;
    if (beyond_bound(uj, st)) return true;
    bool cut = false;
    for (int h : gens) {
      const HalfPlane hp =
          geom::bisector_halfplane(sites[static_cast<std::size_t>(h)], uj);
      // Quick reject: does the bisector actually cut the current cell?
      bool all_inside = true;
      for (Vec2 v : s.cur) {
        if (hp.signed_dist(v) > geom::kEps) {
          all_inside = false;
          break;
        }
      }
      if (all_inside) continue;
      geom::clip_ring_into(s.cur, hp, s.next, geom::kEps);
      std::swap(s.cur, s.next);
      cut = true;
      if (s.cur.empty()) break;
    }
    if (cut) {
      st.rv = geom::max_dist(s.cur.begin(), s.cur.end(), st.ref);
      pc.dist2_evals += s.cur.size();
    }
  }
  return false;
}

// Exhaustive path: every out-site, sorted once by (dist2 to ref, index).
void cell_brute(const std::vector<Vec2>& sites, const std::vector<int>& gens,
                CellScratch& s, CellState& st) {
  s.cand.clear();
  for (std::size_t j = 0; j < sites.size(); ++j) {
    if (std::binary_search(gens.begin(), gens.end(), static_cast<int>(j)))
      continue;
    s.cand.emplace_back(geom::dist2(sites[j], st.ref), static_cast<int>(j));
  }
  perf::counters().dist2_evals += s.cand.size();
  std::sort(s.cand.begin(), s.cand.end());
  clip_against(sites, gens, s.cand, 0, s.cand.size(), s, st);
}

// Grid path: gather candidates in expanding rings around the reference
// generator. Once the gather radius R satisfies R >= 2 rv + dmax_h, any
// site beyond R fails the clip_against pruning bound outright (its distance
// exceeds R >= 2 rv + dmax_h), so the brute scan would have stopped at it —
// the bounded candidate list yields the bit-identical cell. If every site
// is gathered before the bound closes, the list has degenerated to the
// exhaustive one (counted as a kernel fallback) and equality is trivial.
// Each expansion re-gathers and re-sorts the full disk rather than merging
// in the new annulus: the bit-identity argument leans on the processed
// prefix being a stable prefix of one sorted list, which a full re-gather
// gives for free, and expansions are rare (the radius doubles from a
// generator-spread initial guess). The redundant evaluations count against
// the grid path in the dist2 counters, i.e. the reported reduction is
// conservative.
void cell_grid(const std::vector<Vec2>& sites, const wsn::SpatialGrid& grid,
               const std::vector<int>& gens, CellScratch& s, CellState& st) {
  const std::size_t n_out = sites.size() - gens.size();
  double bound = 2.0 * st.rv + st.dmax_h;
  double radius = std::min(bound, st.dmax_h + grid.cell_size());
  std::size_t processed = 0;
  for (bool first_gather = true;; first_gather = false) {
    grid.collect_within(st.ref, radius, s.cand);
    // Drop the generators; the (dist2, index) order is preserved, and the
    // first `processed` entries match the previous, smaller gather exactly.
    std::erase_if(s.cand, [&](const std::pair<double, int>& c) {
      return std::binary_search(gens.begin(), gens.end(), c.second);
    });
    if (clip_against(sites, gens, s.cand, processed, s.cand.size(), s, st))
      return;
    processed = s.cand.size();
    if (processed >= n_out) {
      // Bound never closed before the gather covered every out-site: the
      // provable fallback to the exhaustive list. When the first gather
      // already held every out-site, the site set was simply small.
      auto& pc = perf::counters();
      ++pc.kernel_fallbacks;
      if (first_gather) ++pc.kernel_fallbacks_first_gather;
      return;
    }
    bound = 2.0 * st.rv + st.dmax_h;
    if (radius >= bound) return;  // no ungathered site can pass the bound
    radius = std::min(radius * 2.0, bound);
  }
}

// The one probe primitive of the BFS and its seeders: k nearest sites to a
// point, through the grid when one is available. Grid and brute answers are
// exactly equal (shared canonical (dist2, index) order; property-tested).
void nearest_gens(const std::vector<Vec2>& sites, const wsn::SpatialGrid* grid,
                  Vec2 p, int k, std::vector<int>& out) {
  if (grid)
    grid->k_nearest(p, k, /*exclude=*/-1, out);
  else
    k_nearest_brute(sites, p, k, out);
}

std::vector<int> nearest_gens(const std::vector<Vec2>& sites,
                              const wsn::SpatialGrid* grid, Vec2 p, int k) {
  std::vector<int> out;
  nearest_gens(sites, grid, p, k, out);
  return out;
}

// -------------------------------------------------------- visited cells ----

// Flat open-addressing hash set over canonical (sorted, size-k) generator
// sets. Replaces the std::set<std::vector<int>> the BFS used to pay a
// red-black-tree node plus a heap-allocated key vector per visited cell:
// keys live concatenated in one arena, the table is a power-of-two slot
// array with linear probing, and a membership test costs one hash plus a
// short scan.
class GenSetSeen {
 public:
  explicit GenSetSeen(int k) : k_(static_cast<std::size_t>(k)) {
    table_.assign(64, kEmpty);
  }

  /// True when `gens` (sorted, |gens| == k) was not seen before.
  bool insert(const std::vector<int>& gens) {
    if ((static_cast<std::size_t>(size_) + 1) * 10 >= table_.size() * 7)
      grow();
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = hash(gens.data()) & mask;
    while (table_[slot] != kEmpty) {
      if (equals(table_[slot], gens.data())) return false;
      slot = (slot + 1) & mask;
    }
    table_[slot] = size_;
    keys_.insert(keys_.end(), gens.begin(), gens.end());
    ++size_;
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  std::uint64_t hash(const int* key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t a = 0; a < k_; ++a) {  // splitmix64 over the elements
      std::uint64_t z =
          h + static_cast<std::uint64_t>(static_cast<std::uint32_t>(key[a])) +
          0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h = z ^ (z >> 31);
    }
    return h;
  }

  bool equals(std::uint32_t id, const int* key) const {
    const int* stored = keys_.data() + static_cast<std::size_t>(id) * k_;
    return std::equal(stored, stored + k_, key);
  }

  void grow() {
    std::vector<std::uint32_t> bigger(table_.size() * 2, kEmpty);
    const std::size_t mask = bigger.size() - 1;
    for (std::uint32_t id = 0; id < size_; ++id) {
      std::size_t slot =
          hash(keys_.data() + static_cast<std::size_t>(id) * k_) & mask;
      while (bigger[slot] != kEmpty) slot = (slot + 1) & mask;
      bigger[slot] = id;
    }
    table_.swap(bigger);
  }

  std::size_t k_;
  std::uint32_t size_ = 0;
  std::vector<int> keys_;             // concatenated size-k keys, insert order
  std::vector<std::uint32_t> table_;  // slot -> key id, kEmpty when free
};

// ------------------------------------------------------------------ BFS ----

// Shared BFS engine. When `restrict_to` >= 0, only cells whose generator
// set contains that site are expanded and reported (dominating-region
// traversal); otherwise all cells are reported (full enumeration). When
// `grid` is non-null it must index exactly `sites`; all probe queries and
// candidate gathers then route through it.
std::vector<OrderKCell> bfs_cells(const std::vector<Vec2>& sites, int k,
                                  const Ring& window, int restrict_to,
                                  const std::vector<std::vector<int>>& seeds,
                                  const wsn::SpatialGrid* grid) {
  std::vector<OrderKCell> out;
  if (sites.empty() || k <= 0 || k > static_cast<int>(sites.size()) ||
      window.size() < 3)
    return out;

  GenSetSeen visited(k);
  std::queue<std::vector<int>> queue;
  // Candidate sets are canonicalized in one reused buffer and copied into
  // the queue only when unseen: most probes re-find a visited cell.
  std::vector<int> gens_buf;
  auto push = [&]() {
    std::sort(gens_buf.begin(), gens_buf.end());
    gens_buf.erase(std::unique(gens_buf.begin(), gens_buf.end()),
                   gens_buf.end());
    if (static_cast<int>(gens_buf.size()) != k) return;
    if (restrict_to >= 0 &&
        !std::binary_search(gens_buf.begin(), gens_buf.end(), restrict_to))
      return;
    if (visited.insert(gens_buf)) queue.push(gens_buf);
  };
  auto push_probe = [&](Vec2 p) {
    nearest_gens(sites, grid, p, k, gens_buf);
    push();
  };
  for (const auto& s : seeds) {
    gens_buf.assign(s.begin(), s.end());
    push();
  }

  CellScratch scratch;
  CellState st;
  WindowReach reach(window);
  auto& pc = perf::counters();
  while (!queue.empty()) {
    std::vector<int> gens = std::move(queue.front());
    queue.pop();

    if (!init_cell(sites, gens, window, reach, scratch, st)) continue;
    if (grid) {
      cell_grid(sites, *grid, gens, scratch, st);
#ifndef NDEBUG
      {
        // Debug cross-check: the bounded gather must reproduce the
        // exhaustive kernel bit for bit.
        CellScratch ref_s;
        CellState ref_st;
        init_cell(sites, gens, window, reach, ref_s, ref_st);
        cell_brute(sites, gens, ref_s, ref_st);
        assert(scratch.cur == ref_s.cur &&
               "grid-backed order-k cell diverged from the brute kernel");
      }
#endif
    } else {
      cell_brute(sites, gens, scratch, st);
    }
    const Ring& cell = scratch.cur;
    if (cell.empty() || geom::area(cell) < 1e-18) continue;

    // Cross every edge with a probe just outside the cell; the k nearest
    // sites there form the neighbouring cell's generator set.
    const double delta = probe_delta(cell);
    const std::size_t m = cell.size();
    for (std::size_t e = 0; e < m; ++e) {
      const Vec2 a = cell[e], b = cell[(e + 1) % m];
      const Vec2 edge = b - a;
      const double len = edge.norm();
      if (len <= 0.0) continue;
      const Vec2 outward = Vec2{edge.y, -edge.x}.normalized();
      if (len >= 10.0 * delta) {
        const Vec2 probe = geom::midpoint(a, b) + outward * delta;
        if (!geom::contains_point(window, probe, 0.0)) continue;  // window edge
        push_probe(probe);
      } else {
        // Sliver edge. The old kernel skipped these outright, which can
        // drop a neighbouring cell reachable only through the short edge; a
        // single midpoint probe offset by the full delta is no better, as
        // it can overshoot a thin neighbour entirely. Probe from the
        // midpoints of both half-edges with an offset scaled to the edge
        // length so the probes stay adjacent to it; wrong or duplicate hits
        // are harmless (empty cells or visited sets).
        const double off = 0.25 * len;
        for (const double t : {0.25, 0.75}) {
          const Vec2 probe = a + edge * t + outward * off;
          if (!geom::contains_point(window, probe, 0.0)) continue;
          push_probe(probe);
        }
      }
    }

    ++pc.cells_built;
    out.push_back(OrderKCell{std::move(gens), cell});
  }
  return out;
}

// Seed sets for a dominating-region traversal around u_i.
std::vector<std::vector<int>> region_seeds(const std::vector<Vec2>& sites,
                                           int i, int k,
                                           const wsn::SpatialGrid* grid) {
  const Vec2 ui = sites[static_cast<std::size_t>(i)];
  auto nearest = [&](Vec2 p) { return nearest_gens(sites, grid, p, k); };
  std::vector<std::vector<int>> seeds;
  seeds.push_back(nearest(ui));
  // Extra probe seeds around u_i guard against degenerate ties at u_i
  // itself (e.g. when the k-nearest set at u_i has an empty cell).
  for (int dir = 0; dir < 8; ++dir) {
    const double ang = dir * M_PI / 4.0;
    const Vec2 p = ui + Vec2{std::cos(ang), std::sin(ang)} * 1e-5;
    auto h = nearest(p);
    // Force i into the seed if the probe slipped outside its region.
    if (!std::count(h.begin(), h.end(), i) && !h.empty()) h.back() = i;
    seeds.push_back(std::move(h));
  }
  return seeds;
}

// Seed sets reaching every connected component of the full diagram.
std::vector<std::vector<int>> enumeration_seeds(const std::vector<Vec2>& sites,
                                                int k, const Ring& window,
                                                const wsn::SpatialGrid* grid) {
  auto nearest = [&](Vec2 p) { return nearest_gens(sites, grid, p, k); };
  std::vector<std::vector<int>> seeds;
  // Seeding from every site's own location reaches every connected
  // component of the diagram restricted to the window.
  for (std::size_t i = 0; i < sites.size(); ++i) seeds.push_back(nearest(sites[i]));
  seeds.push_back(nearest(geom::centroid(window)));
  return seeds;
}

// Below this site count the grid build outweighs the candidate savings; the
// exhaustive sort over a handful of sites is already cache-resident.
constexpr std::size_t kAutoGridThreshold = 32;

// Thread-local scratch index for the auto-accelerated entry points: rebuilt
// per call (O(n)), bucket storage reused across calls on the same thread.
// Per-round owners that issue many queries against one snapshot (the region
// providers) should prefer the explicit-grid overloads.
const wsn::SpatialGrid& scratch_grid(const std::vector<Vec2>& sites) {
  thread_local wsn::SpatialGrid grid;
  const geom::BBox bb = geom::bounding_box(sites);
  const double span = std::max(bb.width(), bb.height());
  const double cell = std::max(
      span / std::ceil(std::sqrt(static_cast<double>(sites.size()))), 1e-6);
  grid.rebuild(sites, cell);
  return grid;
}

}  // namespace

Ring order_k_cell(const std::vector<Vec2>& sites,
                  const std::vector<int>& gens,
                  const std::vector<int>& others_sorted, const Ring& window) {
  CellScratch s;
  CellState st;
  WindowReach reach(window);
  if (!init_cell(sites, gens, window, reach, s, st)) return {};
  // Honour the caller-provided order exactly; the keys are unused.
  s.cand.clear();
  s.cand.reserve(others_sorted.size());
  for (int j : others_sorted) s.cand.emplace_back(0.0, j);
  clip_against(sites, gens, s.cand, 0, s.cand.size(), s, st);
  return std::move(s.cur);
}

std::vector<OrderKCell> dominating_region_cells(const std::vector<Vec2>& sites,
                                                int i, int k,
                                                const Ring& window) {
  if (i < 0 || i >= static_cast<int>(sites.size())) return {};
  if (sites.size() >= kAutoGridThreshold)
    return dominating_region_cells(sites, scratch_grid(sites), i, k, window);
  return dominating_region_cells_brute(sites, i, k, window);
}

std::vector<OrderKCell> dominating_region_cells(const std::vector<Vec2>& sites,
                                                const wsn::SpatialGrid& grid,
                                                int i, int k,
                                                const Ring& window) {
  if (i < 0 || i >= static_cast<int>(sites.size())) return {};
  return bfs_cells(sites, k, window, i, region_seeds(sites, i, k, &grid),
                   &grid);
}

std::vector<OrderKCell> dominating_region_cells_brute(
    const std::vector<Vec2>& sites, int i, int k, const Ring& window) {
  if (i < 0 || i >= static_cast<int>(sites.size())) return {};
  return bfs_cells(sites, k, window, i, region_seeds(sites, i, k, nullptr),
                   nullptr);
}

std::vector<OrderKCell> enumerate_order_k_cells(const std::vector<Vec2>& sites,
                                                int k, const Ring& window) {
  if (sites.size() >= kAutoGridThreshold)
    return enumerate_order_k_cells(sites, scratch_grid(sites), k, window);
  return enumerate_order_k_cells_brute(sites, k, window);
}

std::vector<OrderKCell> enumerate_order_k_cells(const std::vector<Vec2>& sites,
                                                const wsn::SpatialGrid& grid,
                                                int k, const Ring& window) {
  return bfs_cells(sites, k, window, /*restrict_to=*/-1,
                   enumeration_seeds(sites, k, window, &grid), &grid);
}

std::vector<OrderKCell> enumerate_order_k_cells_brute(
    const std::vector<Vec2>& sites, int k, const Ring& window) {
  return bfs_cells(sites, k, window, /*restrict_to=*/-1,
                   enumeration_seeds(sites, k, window, nullptr), nullptr);
}

Ring order_1_cell(const std::vector<Vec2>& sites, int i, const Ring& window) {
  auto cells = dominating_region_cells(sites, i, 1, window);
  if (cells.empty()) return {};
  return cells.front().poly;
}

}  // namespace laacad::vor
