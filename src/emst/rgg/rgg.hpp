// Random geometric graphs (paper §II network model).
//
// n points in the unit square; edge (u,v) present iff d(u,v) ≤ r, weighted
// by Euclidean distance. Construction enumerates each pair within r once on
// the cell grid, in expected O(n + |E|) at percolation/connectivity radii.
#pragma once

#include <cstddef>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/graph/adjacency.hpp"
#include "emst/graph/edge.hpp"
#include "emst/support/rng.hpp"

namespace emst::rgg {

struct Rgg {
  std::vector<geometry::Point2> points;
  double radius = 0.0;
  graph::AdjacencyList graph;  ///< edges with w = Euclidean distance
};

/// All edges {u,v} with distance(points[u], points[v]) <= radius, weighted by
/// Euclidean distance, in canonical order.
[[nodiscard]] std::vector<graph::Edge> geometric_edges(
    const std::vector<geometry::Point2>& points, double radius);

/// Same edge set, each edge as (min id, max id), in the order of
/// spatial::CellGrid::for_each_pair_within over a grid of cells no smaller
/// than r (unsorted). For consumers that impose their own order anyway —
/// kruskal_msf and AdjacencyList both sort their input — sorting here would
/// just be thrown away. Capacity is reserved up front from the
/// expected-degree estimate n·π·r².
[[nodiscard]] std::vector<graph::Edge> geometric_edges_unsorted(
    const std::vector<geometry::Point2>& points, double radius);

/// Build the RGG over given points.
[[nodiscard]] Rgg build_rgg(std::vector<geometry::Point2> points, double radius);

/// Sample n uniform points and build the RGG.
[[nodiscard]] Rgg random_rgg(std::size_t n, double radius, support::Rng& rng);

/// Exact Euclidean MST of a point set: Kruskal over an RGG whose radius is
/// grown (×1.5 steps from the connectivity radius) until the graph connects.
/// This equals the complete-graph Euclidean MST because once G_r is
/// connected, Kruskal on the complete graph never needs an edge longer
/// than r.
[[nodiscard]] std::vector<graph::Edge> euclidean_mst(
    const std::vector<geometry::Point2>& points);

}  // namespace emst::rgg
