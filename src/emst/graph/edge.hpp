// Weighted undirected edges with a canonical total order.
//
// Node positions are i.i.d. continuous, so edge weights are distinct with
// probability 1 — but we still break ties by endpoint ids everywhere
// ((weight, min(u,v), max(u,v)) lexicographic). This makes the MST *unique by
// construction*, which is what lets every distributed algorithm's output be
// compared edge-for-edge against Kruskal's.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

namespace emst::graph {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double w = 0.0;

  /// Canonical form: u < v.
  [[nodiscard]] constexpr Edge canonical() const noexcept {
    return u <= v ? *this : Edge{v, u, w};
  }

  friend constexpr bool operator==(const Edge& a, const Edge& b) noexcept {
    const Edge ca = a.canonical();
    const Edge cb = b.canonical();
    return ca.u == cb.u && ca.v == cb.v;
  }
};

/// Total order on edges: weight, then canonical endpoints. This is the single
/// tie-break rule used by every MST implementation in the repository.
[[nodiscard]] constexpr bool edge_less(const Edge& a, const Edge& b) noexcept {
  if (a.w != b.w) return a.w < b.w;
  const Edge ca = a.canonical();
  const Edge cb = b.canonical();
  if (ca.u != cb.u) return ca.u < cb.u;
  return ca.v < cb.v;
}

/// Sort edges into the canonical order (in place): the order
/// std::sort(edges, edge_less) gives, for any list without two edges equal
/// under edge_less. An exact two-level sort: one counting pass scatters the
/// m edges into about m/4 buckets by a key of w² that never decreases as w
/// grows, then edge_less orders each bucket. Uniform points within r have
/// w² uniform, so buckets average about four edges; skewed weights make
/// them uneven, never wrong. Weights must be numbers >= 0 (asserted). The
/// scatter holds a second copy of the list until the call returns.
void sort_edges(std::vector<Edge>& edges);

/// Sum of w over edges.
[[nodiscard]] inline double total_weight(const std::vector<Edge>& edges) noexcept {
  double total = 0.0;
  for (const Edge& e : edges) total += e.w;
  return total;
}

}  // namespace emst::graph
