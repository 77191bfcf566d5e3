// Compressed-sparse-row adjacency for weighted undirected graphs.
//
// Built once from an edge list: sort_edges puts the list in the canonical
// edge order, and placing each edge's two entries in that order leaves every
// per-node neighbor range contiguous and sorted by (weight, neighbor id), so
// the GHS implementations can walk "basic edges in ascending weight" with a
// cursor.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "emst/graph/edge.hpp"

namespace emst::graph {

/// Sentinel edge_index for Neighbor entries of a backend that carries no
/// global edge list (sim::ImplicitTopology).
inline constexpr std::uint32_t kNoEdgeIndex = static_cast<std::uint32_t>(-1);

/// Sentinel row position: a Neighbor::twin the backend does not store
/// (sim::ImplicitTopology), and the port of a delivery that did not arrive
/// over a link (sim::Delivery::port).
inline constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

/// One entry of u's neighbour row: the link from its owner u to `id`.
struct Neighbor {
  NodeId id = 0;
  double w = 0.0;
  /// Index of this (u,v) pair in the owning graph's canonical edge list;
  /// identical for both directions, so per-edge state can live in one array.
  /// kNoEdgeIndex on the implicit backend, which carries no edge indices.
  std::uint32_t edge_index = 0;
  /// Position of the owner u in neighbors(id): the entry for the same link
  /// seen from the other end, so a message sent over this link arrives on a
  /// known port of its receiver. kNoSlot when the backend stores no rows.
  std::uint32_t twin = kNoSlot;
};
// twin fills what was tail padding: a CSR entry stays 24 B.
static_assert(sizeof(Neighbor) == 24);

/// Order-free summary of a neighbour range (the topologies' reach_within):
/// its size and its last element, the farthest neighbour — the maximum by
/// (w, id). `farthest` keeps its {kNoNode, 0} default when the range is empty.
struct Reach {
  std::size_t count = 0;
  Neighbor farthest{kNoNode, 0.0, kNoEdgeIndex};
};

class AdjacencyList {
 public:
  AdjacencyList() = default;

  /// Build from an undirected edge list over nodes [0, n). Takes the list
  /// by value: pass an rvalue to avoid the copy (it is sorted into the
  /// canonical order and kept as the graph's edge store either way). The
  /// sort's second copy of the list is freed before the rows are allocated.
  AdjacencyList(std::size_t n, std::vector<Edge> edges);

  [[nodiscard]] std::size_t node_count() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Neighbors of u, sorted by (weight, id).
  [[nodiscard]] std::span<const Neighbor> neighbors(NodeId u) const;

  [[nodiscard]] std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  /// Canonical (sorted) edge list the graph was built from.
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Weight of edge index e.
  [[nodiscard]] double edge_weight(std::uint32_t e) const { return edges_[e].w; }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<Neighbor> entries_;
  std::vector<Edge> edges_;  // canonical order
};

}  // namespace emst::graph
