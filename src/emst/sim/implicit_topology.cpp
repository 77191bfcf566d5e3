#include "emst/sim/implicit_topology.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "emst/support/assert.hpp"

namespace emst::sim {

namespace {

// Per-thread neighbour scratch. Queries are const and may run concurrently
// on one topology, so the buffer cannot be a per-topology member without a
// lock on the hottest path in the simulator.
std::vector<graph::Neighbor>& tls_scratch() {
  static thread_local std::vector<graph::Neighbor> scratch;
  return scratch;
}

}  // namespace

ImplicitTopology::ImplicitTopology(std::vector<geometry::Point2> points,
                                   double max_radius)
    : points_(std::move(points)),
      max_radius_(max_radius),
      rmax_sq_(max_radius * max_radius) {
  EMST_ASSERT(max_radius_ > 0.0);
  grid_ = std::make_unique<spatial::CellGrid>(
      std::span<const geometry::Point2>(points_), max_radius_);
}

std::span<const graph::Neighbor> ImplicitTopology::neighbors(NodeId u) const {
  // Membership only: sqrt rounding can put a member's w a ulp above
  // max_radius, and the materialized neighbors(u) keeps such entries.
  return neighbors_within(u, std::numeric_limits<double>::infinity());
}

std::span<const graph::Neighbor> ImplicitTopology::neighbors_within(
    NodeId u, double radius) const {
  auto& scratch = tls_scratch();
  scratch.clear();
  for_each_neighbor_within(u, radius, [&](NodeId v, double w) {
    scratch.push_back({v, w, graph::kNoEdgeIndex});
  });
  std::sort(scratch.begin(), scratch.end(),
            [](const graph::Neighbor& a, const graph::Neighbor& b) {
              if (a.w != b.w) return a.w < b.w;
              return a.id < b.id;
            });
  return {scratch.data(), scratch.size()};
}

graph::Reach ImplicitTopology::reach_within(NodeId u, double radius) const {
  graph::Reach out;
  for_each_neighbor_within(u, radius, [&](NodeId v, double w) {
    const graph::Neighbor& far = out.farthest;
    if (out.count++ == 0 || w > far.w || (w == far.w && v > far.id))
      out.farthest = {v, w, graph::kNoEdgeIndex};
  });
  return out;
}

std::vector<NodeId> ImplicitTopology::nodes_within(NodeId u,
                                                   double radius) const {
  EMST_ASSERT(u < points_.size());
  std::vector<NodeId> out;
  grid_->for_each_within(points_[u], radius, [&](spatial::PointIndex i) {
    if (i != u) out.push_back(i);
  });
  return out;
}

std::size_t ImplicitTopology::edge_count() const {
  if (edge_count_ != kUnknownEdgeCount) return edge_count_;
  std::size_t m = 0;
  for (NodeId u = 0; u < points_.size(); ++u) {
    grid_->for_each_within(points_[u], max_radius_,
                           [&](spatial::PointIndex v) { m += v > u; });
  }
  edge_count_ = m;
  return m;
}

}  // namespace emst::sim
