#include "emst/rgg/rgg.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "emst/geometry/sampling.hpp"
#include "emst/graph/mst.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/spatial/cell_grid.hpp"
#include "emst/support/assert.hpp"

namespace emst::rgg {

std::vector<graph::Edge> geometric_edges_unsorted(
    const std::vector<geometry::Point2>& points, double radius) {
  EMST_ASSERT(radius > 0.0);
  // Cells no smaller than r (side ⌊1/r⌋), so each point scans the fewest
  // cells; the pair scan is exact on whatever grid the clamps leave.
  const double side = std::max(1.0, std::floor(1.0 / radius));
  const spatial::CellGrid grid(points, 1.0 / side);
  std::vector<graph::Edge> edges;
  // Expected edge count in the unit square: each unordered pair is an edge
  // with probability ≤ π·r² (boundary effects only lower it), so n²·π·r²/2
  // is a tight upper estimate; cap it at the complete graph.
  const double n = static_cast<double>(points.size());
  const double pair_prob = std::min(1.0, std::numbers::pi * radius * radius);
  const double expected = 0.5 * n * (n - 1.0) * pair_prob;
  edges.reserve(static_cast<std::size_t>(expected) + 16);
  // d² is distance_sq of the pair's coordinates, which is bitwise
  // symmetric, so w is geometry::distance(points[u], points[v]).
  grid.for_each_pair_within(
      radius, [&](spatial::PointIndex u, spatial::PointIndex v, double d_sq) {
        edges.push_back({u, v, std::sqrt(d_sq)});
      });
  return edges;
}

std::vector<graph::Edge> geometric_edges(const std::vector<geometry::Point2>& points,
                                         double radius) {
  auto edges = geometric_edges_unsorted(points, radius);
  graph::sort_edges(edges);
  return edges;
}

Rgg build_rgg(std::vector<geometry::Point2> points, double radius) {
  Rgg rgg;
  rgg.radius = radius;
  // AdjacencyList canonicalizes (sorts) internally, so the unsorted
  // enumeration is enough — and the rvalue hand-off skips the edge copy.
  rgg.graph = graph::AdjacencyList(points.size(),
                                   geometric_edges_unsorted(points, radius));
  rgg.points = std::move(points);
  return rgg;
}

Rgg random_rgg(std::size_t n, double radius, support::Rng& rng) {
  return build_rgg(geometry::uniform_points(n, rng), radius);
}

std::vector<graph::Edge> euclidean_mst(const std::vector<geometry::Point2>& points) {
  const std::size_t n = points.size();
  if (n <= 1) return {};
  double radius = n >= 2 ? connectivity_radius(n, 1.6) : 1.0;
  const double diameter = std::sqrt(2.0);
  for (;;) {
    // kruskal_msf sorts its input, so the unsorted enumeration avoids a
    // redundant full sort per growth step.
    auto edges = geometric_edges_unsorted(points, std::min(radius, diameter));
    auto tree = graph::kruskal_msf(n, std::move(edges));
    if (tree.size() == n - 1 || radius >= diameter) return tree;
    radius *= 1.5;
  }
}

}  // namespace emst::rgg
