// Implicit (memory-lean) topology backend.
//
// Same surface as sim::Topology, but neighbourhoods are regenerated on
// demand from the cell grid instead of being stored: the only O(n)-sized
// state is the point array and the grid's CSR buckets, so a 10^7-node
// unit-disk instance fits where the materialized Θ(n log n)-entry adjacency
// cannot allocate (docs/PERF.md, "Scaling to ten million nodes").
// `emst::run(const Instance&)` always builds this backend; the meter-direct
// drivers (sync GHS, EOPT, choreographed Co-NNT) run on it directly, and
// the engine-backed ones (classic GHS, the Co-NNT actor) get the CSR of the
// same points and radius.
//
// Bitwise-identity contract with the materialized backend:
//  * membership — pair (u,v) is a neighbour iff
//    distance_sq(points[v], points[u]) <= fl(max_radius²), the exact
//    predicate rgg::build_rgg's grid query evaluates (distance_sq is
//    bitwise symmetric, so querying from either endpoint agrees);
//  * weights — w = distance(points[u], points[v]) = sqrt(distance_sq),
//    identical to the stored CSR weight;
//  * order — enumeration is sorted ascending (weight, id), the canonical
//    neighbour order AdjacencyList guarantees;
//  * sub-radius — neighbors_within(u, r) applies BOTH predicates
//    (membership ∧ w <= r), matching the materialized prefix that
//    upper-bounds on w. The two-predicate rule matters at the radius
//    boundary, where sqrt rounding can put w a ulp above max_radius.
//    The grid is scanned at min(r·(1+κ), max_radius) with κ = 1e-9, so a
//    query visits only the cells its disc can reach (EOPT's Step-1 radius
//    is ~0.3·max_radius); neighbors(u) is the r = ∞ case and scans at
//    max_radius. The scan radius only bounds the candidate set — the two
//    predicates decide the result — but it must not drop a candidate
//    that passes them. Scanning at exactly r would: w = fl(√d²) <= r does
//    not imply d² <= fl(r²) (for about a quarter of random pairs
//    d² > fl(w²), so a query at r = w loses the neighbour of weight w).
//    The relative slack κ, orders of magnitude above those few-ulp
//    errors, also keeps the scan's cell range clear of the rounding in
//    p ± r at the disc's edge.
//  * reductions — reach_within(u, r) (count and farthest element) and
//    lightest_within(u, r, keep) (first element passing keep) equal the
//    same reductions over the sorted neighbors_within(u, r). They apply the
//    same two predicates in one unsorted sweep: a count and a (w, id) max
//    do not depend on the order of the set, and (w, id) is a total order,
//    so the argmin is unique. No scratch, no sort.
//
// Every scan reads d² from the grid's cell-ordered coordinate copy, so
// candidates are not reloaded from points_ at random.
//
// neighbors()/neighbors_within() return spans into a thread-local scratch
// buffer: valid until the next neighbour query on the same thread. Every
// call site (sync GHS's announce and MOE scans, ghs::distinct_pairs_used)
// finishes with the span before its next query; the network engines never
// see this backend, since they run on the CSR. The scratch is thread-local
// rather than per-topology because the queries are const: like the CSR
// backend's, they must stay safe to call from several threads on one
// shared topology, which a mutable member buffer would break.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/graph/adjacency.hpp"
#include "emst/spatial/cell_grid.hpp"
#include "emst/support/assert.hpp"

namespace emst::sim {

using NodeId = graph::NodeId;

class ImplicitTopology {
 public:
  /// Index `points` with maximum transmission radius `max_radius`. The grid
  /// cell size mirrors Topology's (cell = max_radius, clamped), so
  /// nodes_within() enumerates candidates in the identical grid order.
  ImplicitTopology(std::vector<geometry::Point2> points, double max_radius);

  ImplicitTopology(ImplicitTopology&&) noexcept = default;
  ImplicitTopology& operator=(ImplicitTopology&&) noexcept = default;

  [[nodiscard]] std::size_t node_count() const noexcept { return points_.size(); }
  [[nodiscard]] double max_radius() const noexcept { return max_radius_; }
  [[nodiscard]] const std::vector<geometry::Point2>& points() const noexcept {
    return points_;
  }
  [[nodiscard]] geometry::Point2 position(NodeId u) const { return points_[u]; }

  [[nodiscard]] double distance(NodeId u, NodeId v) const {
    return geometry::distance(points_[u], points_[v]);
  }

  /// Neighbors of u within the max radius, ascending (weight, id).
  /// Span into thread-local scratch — valid until the next neighbour query
  /// on this thread.
  [[nodiscard]] std::span<const graph::Neighbor> neighbors(NodeId u) const;

  /// Neighbors of u with w <= radius, ascending (weight, id). Same scratch
  /// lifetime as neighbors().
  [[nodiscard]] std::span<const graph::Neighbor> neighbors_within(
      NodeId u, double radius) const;

  /// Size and last (farthest) element of neighbors_within(u, radius),
  /// from one unsorted sweep.
  [[nodiscard]] graph::Reach reach_within(NodeId u, double radius) const;

  /// First element of neighbors_within(u, radius) whose id passes
  /// keep(NodeId), from one unsorted sweep: the (weight, id) argmin over
  /// the neighbours keep accepts. keep runs only on candidates lighter than
  /// the best so far.
  template <typename Keep>
  [[nodiscard]] std::optional<graph::Neighbor> lightest_within(
      NodeId u, double radius, Keep&& keep) const {
    std::optional<graph::Neighbor> best;
    for_each_neighbor_within(u, radius, [&](NodeId v, double w) {
      if (best && (w > best->w || (w == best->w && v > best->id))) return;
      if (keep(v)) best = graph::Neighbor{v, w, graph::kNoEdgeIndex};
    });
    return best;
  }

  /// All nodes (other than u) within Euclidean `radius` of u, in grid
  /// enumeration order — identical to Topology::nodes_within.
  [[nodiscard]] std::vector<NodeId> nodes_within(NodeId u, double radius) const;

  /// Number of undirected edges at the max radius. Computed exactly by one
  /// counting sweep on first call (O(n·deg)), then cached. First call is
  /// not thread-safe; drivers take it during single-threaded setup.
  [[nodiscard]] std::size_t edge_count() const;

 private:
  // Relative slack on the grid scan radius of a neighbour query (see the
  // sub-radius rule above). Far above the few-ulp rounding it absorbs, far
  // below anything that widens the scan measurably.
  static constexpr double kScanSlack = 1e-9;

  /// fn(v, w) for every v in neighbors_within(u, radius), in grid order:
  /// the two predicates over a scan of only the cells the disc can reach.
  template <typename Fn>
  void for_each_neighbor_within(NodeId u, double radius, Fn&& fn) const {
    EMST_ASSERT(u < points_.size());
    const double scan = std::min(radius * (1.0 + kScanSlack), max_radius_);
    grid_->for_each_within(
        points_[u], scan, [&](spatial::PointIndex v, double d_sq) {
          if (v == u || d_sq > rmax_sq_) return;  // membership
          const double w = std::sqrt(d_sq);  // == distance(points_[u], points_[v])
          if (w <= radius) fn(static_cast<NodeId>(v), w);
        });
  }

  std::vector<geometry::Point2> points_;
  double max_radius_ = 0.0;
  double rmax_sq_ = 0.0;
  std::unique_ptr<spatial::CellGrid> grid_;  // spatial index over points_
  mutable std::size_t edge_count_ = kUnknownEdgeCount;

  static constexpr std::size_t kUnknownEdgeCount = static_cast<std::size_t>(-1);
};

}  // namespace emst::sim
