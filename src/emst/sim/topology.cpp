#include "emst/sim/topology.hpp"

#include "emst/support/assert.hpp"

namespace emst::sim {

namespace {

// Network::broadcast's bounded path early-exits on the first neighbor whose
// weight exceeds the power radius — correct only if every node's neighbor
// range is ascending in weight. AdjacencyList guarantees that today, but the
// hot loop must not silently depend on it: check the invariant once here,
// at construction, rather than per broadcast.
void assert_neighbors_weight_sorted(const graph::AdjacencyList& graph) {
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    const auto nbs = graph.neighbors(u);
    for (std::size_t i = 1; i < nbs.size(); ++i) {
      EMST_ASSERT_MSG(nbs[i - 1].w <= nbs[i].w,
                      "topology neighbors must be sorted by weight");
    }
  }
}

}  // namespace

Topology::Topology(std::vector<geometry::Point2> points, double max_radius)
    : Topology(rgg::build_rgg(std::move(points), max_radius)) {}

Topology::Topology(rgg::Rgg instance)
    : points_(std::move(instance.points)),
      max_radius_(instance.radius),
      graph_(std::move(instance.graph)) {
  EMST_ASSERT(max_radius_ > 0.0);
  assert_neighbors_weight_sorted(graph_);
  grid_ = std::make_unique<spatial::CellGrid>(
      std::span<const geometry::Point2>(points_), max_radius_);
}

Topology::Topology(std::vector<geometry::Point2> points, double max_radius,
                   std::vector<graph::Edge> edges)
    : points_(std::move(points)),
      max_radius_(max_radius),
      graph_(points_.size(), std::move(edges)) {
  EMST_ASSERT(max_radius_ > 0.0);
  // A link's weight is what a unicast over it charges (Network::unicast),
  // so it must be the endpoints' distance, as on the generated graphs.
  for (const graph::Edge& e : graph_.edges()) {
    EMST_ASSERT_MSG(e.w <= max_radius_ * (1.0 + 1e-12),
                    "explicit edge exceeds the maximum transmission radius");
    EMST_ASSERT_MSG(e.w == geometry::distance(points_[e.u], points_[e.v]),
                    "explicit edge weight is not its endpoints' distance");
  }
  assert_neighbors_weight_sorted(graph_);
  grid_ = std::make_unique<spatial::CellGrid>(
      std::span<const geometry::Point2>(points_), max_radius_);
}

std::vector<NodeId> Topology::nodes_within(NodeId u, double radius) const {
  EMST_ASSERT(u < points_.size());
  std::vector<NodeId> out;
  grid_->for_each_within(points_[u], radius, [&](spatial::PointIndex i) {
    if (i != u) out.push_back(i);
  });
  return out;
}

}  // namespace emst::sim
