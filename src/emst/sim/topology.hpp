// Physical network topology for the simulator (materialized backend).
//
// Owns node positions, the adjacency at the *maximum* transmission radius an
// algorithm is allowed to use, and a spatial index for power-adaptive local
// broadcasts. Algorithms that operate below the maximum radius (EOPT Step 1)
// simply filter neighbours by distance — the paper's "nodes set the power
// level adaptively" capability (§II).
//
// This is one of two topology backends (see docs/ARCHITECTURE.md):
// Topology stores the full Θ(n log n)-entry CSR adjacency, while
// sim::ImplicitTopology regenerates neighbourhoods on demand from the cell
// grid in O(n) memory. The network engines and their drivers (classic GHS,
// the Co-NNT actor) run on this backend alone; the meter-direct sync-GHS,
// EOPT and choreographed Co-NNT drivers are templated over the backend.
// Both expose the same surface —
//
//   node_count() / max_radius() / points() / position(u) / distance(u, v)
//   neighbors(u)              — ascending (weight, id), all within max radius
//   neighbors_within(u, r)    — the prefix of neighbors(u) with w <= r
//   reach_within(u, r)        — size and last element of that prefix
//   lightest_within(u, r, keep) — first element of that prefix with keep(id)
//   nodes_within(u, r)        — spatial-index query, any radius, grid order
//   edge_count()              — |E| at the max radius
//
// and the canonical-order guarantee: neighbors(u) is sorted ascending by
// (weight, id), identically for both backends, so every driver decision that
// breaks ties by enumeration order is bitwise-reproducible across backends.
// The two reductions do not depend on enumeration order at all: here they
// read the sorted prefix, while the implicit backend answers them in one
// unsorted sweep.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/graph/adjacency.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/spatial/cell_grid.hpp"

namespace emst::sim {

using NodeId = graph::NodeId;

class Topology {
 public:
  /// Build from points with maximum transmission radius `max_radius`.
  Topology(std::vector<geometry::Point2> points, double max_radius);

  /// Adopt an already-built RGG (adjacency radius becomes the max radius).
  explicit Topology(rgg::Rgg instance);

  /// Build with an EXPLICIT edge set (e.g. the Gabriel subgraph of the unit
  /// disk graph): communication is restricted to the given links, though
  /// local broadcasts still propagate to everything in range (the radio
  /// does not know about logical topologies).
  Topology(std::vector<geometry::Point2> points, double max_radius,
           std::vector<graph::Edge> edges);

  [[nodiscard]] std::size_t node_count() const noexcept { return points_.size(); }
  [[nodiscard]] double max_radius() const noexcept { return max_radius_; }
  [[nodiscard]] const std::vector<geometry::Point2>& points() const noexcept {
    return points_;
  }
  [[nodiscard]] geometry::Point2 position(NodeId u) const { return points_[u]; }
  [[nodiscard]] const graph::AdjacencyList& graph() const noexcept { return graph_; }

  [[nodiscard]] double distance(NodeId u, NodeId v) const {
    return geometry::distance(points_[u], points_[v]);
  }

  /// Neighbors of u within the max radius, ascending (weight, id).
  [[nodiscard]] std::span<const graph::Neighbor> neighbors(NodeId u) const {
    return graph_.neighbors(u);
  }

  /// Neighbors of u within `radius` (<= max radius), ascending (weight, id).
  /// The weight-sorted invariant makes this the prefix of neighbors(u) up to
  /// the last weight <= radius.
  [[nodiscard]] std::span<const graph::Neighbor> neighbors_within(
      NodeId u, double radius) const {
    const auto nbs = graph_.neighbors(u);
    const auto end = std::upper_bound(
        nbs.begin(), nbs.end(), radius,
        [](double r, const graph::Neighbor& nb) { return r < nb.w; });
    return nbs.first(static_cast<std::size_t>(end - nbs.begin()));
  }

  /// Size and last (farthest) element of neighbors_within(u, radius).
  [[nodiscard]] graph::Reach reach_within(NodeId u, double radius) const {
    const auto nbs = neighbors_within(u, radius);
    if (nbs.empty()) return {};
    return {nbs.size(), nbs.back()};
  }

  /// First element of neighbors_within(u, radius) whose id passes
  /// keep(NodeId) — the lightest such neighbour by (weight, id).
  template <typename Keep>
  [[nodiscard]] std::optional<graph::Neighbor> lightest_within(
      NodeId u, double radius, Keep&& keep) const {
    for (const graph::Neighbor& nb : neighbors_within(u, radius)) {
      if (keep(nb.id)) return nb;
    }
    return std::nullopt;
  }

  /// Number of undirected edges at the max radius.
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return graph_.edge_count();
  }

  /// All nodes (other than u) within Euclidean `radius` of u. Unlike
  /// neighbors(), this consults the spatial index, so it works for radii
  /// beyond max_radius (Co-NNT's unbounded doubling probe).
  [[nodiscard]] std::vector<NodeId> nodes_within(NodeId u, double radius) const;

 private:
  std::vector<geometry::Point2> points_;
  double max_radius_ = 0.0;
  graph::AdjacencyList graph_;
  std::unique_ptr<spatial::CellGrid> grid_;  // spatial index over points_
};

}  // namespace emst::sim
