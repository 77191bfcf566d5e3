#include "emst/graph/adjacency.hpp"

#include <algorithm>
#include <utility>

#include "emst/support/assert.hpp"

namespace emst::graph {

AdjacencyList::AdjacencyList(std::size_t n, std::vector<Edge> edges)
    : offsets_(n + 1, 0), edges_(std::move(edges)) {
  sort_edges(edges_);
  for (const Edge& e : edges_) {
    EMST_ASSERT(e.u < n && e.v < n);
    EMST_ASSERT_MSG(e.u != e.v, "self loops are not allowed");
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];
  entries_.resize(offsets_[n]);
  // Each row's start and fill count side by side, so placing an entry reads
  // one cache line per endpoint.
  struct Row {
    std::size_t begin;
    std::uint32_t placed;
  };
  std::vector<Row> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = {offsets_[i], 0};
  // edges_ is sorted by (w, u, v); appending in that order leaves each
  // node's neighbor range sorted by (w, id) without a per-node sort. An
  // edge's two entries land at their rows' fill counts, so each records the
  // other's position as its twin.
  for (std::uint32_t idx = 0; idx < edges_.size(); ++idx) {
    const Edge& e = edges_[idx];
    Row& ru = rows[e.u];
    Row& rv = rows[e.v];
    const std::uint32_t slot_u = ru.placed++;
    const std::uint32_t slot_v = rv.placed++;
    entries_[ru.begin + slot_u] = Neighbor{e.v, e.w, idx, slot_v};
    entries_[rv.begin + slot_v] = Neighbor{e.u, e.w, idx, slot_u};
  }
}

std::span<const Neighbor> AdjacencyList::neighbors(NodeId u) const {
  EMST_ASSERT(u + 1 < offsets_.size());
  return {entries_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
}

}  // namespace emst::graph
