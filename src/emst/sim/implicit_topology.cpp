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

[[nodiscard]] constexpr std::uint64_t pack_pair(graph::NodeId u,
                                                graph::NodeId v) noexcept {
  const graph::NodeId lo = u < v ? u : v;
  const graph::NodeId hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
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
  if (!edge_ranks_.empty()) {
    for (graph::Neighbor& nb : scratch) nb.edge_index = edge_rank(u, nb.id);
  }
  return {scratch.data(), scratch.size()};
}

graph::Reach ImplicitTopology::reach_within(NodeId u, double radius) const {
  graph::Reach out;
  for_each_neighbor_within(u, radius, [&](NodeId v, double w) {
    const graph::Neighbor& far = out.farthest;
    if (out.count++ == 0 || w > far.w || (w == far.w && v > far.id))
      out.farthest = {v, w, graph::kNoEdgeIndex};
  });
  if (out.count > 0 && has_edge_ranks())
    out.farthest.edge_index = edge_rank(u, out.farthest.id);
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

void ImplicitTopology::ensure_edge_ranks() const {
  if (!edge_ranks_.empty()) return;
  std::vector<std::uint64_t>& ranks = edge_ranks_;
  ranks.reserve(edge_count());
  for (NodeId u = 0; u < points_.size(); ++u) {
    grid_->for_each_within(points_[u], max_radius_, [&](spatial::PointIndex v) {
      if (v > u) ranks.push_back(pack_pair(u, v));
    });
  }
  // Canonical (weight, u, v) order — the same total order AdjacencyList
  // sorts its edge store by, so ranks equal CSR edge indices.
  std::sort(ranks.begin(), ranks.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              const auto au = static_cast<NodeId>(a >> 32);
              const auto av = static_cast<NodeId>(a & 0xFFFFFFFFu);
              const auto bu = static_cast<NodeId>(b >> 32);
              const auto bv = static_cast<NodeId>(b & 0xFFFFFFFFu);
              const double wa = geometry::distance(points_[au], points_[av]);
              const double wb = geometry::distance(points_[bu], points_[bv]);
              if (wa != wb) return wa < wb;
              return a < b;  // packed compare == (u, v) lexicographic
            });
}

std::uint32_t ImplicitTopology::edge_rank(NodeId u, NodeId v) const {
  EMST_ASSERT_MSG(!edge_ranks_.empty(),
                  "edge_rank requires ensure_edge_ranks()");
  const std::uint64_t key = pack_pair(u, v);
  const auto ku = static_cast<NodeId>(key >> 32);
  const auto kv = static_cast<NodeId>(key & 0xFFFFFFFFu);
  const double kw = geometry::distance(points_[ku], points_[kv]);
  const auto it = std::lower_bound(
      edge_ranks_.begin(), edge_ranks_.end(), key,
      [&](std::uint64_t a, std::uint64_t b) {
        const auto au = static_cast<NodeId>(a >> 32);
        const auto av = static_cast<NodeId>(a & 0xFFFFFFFFu);
        const double wa = a == key ? kw
                                   : geometry::distance(points_[au], points_[av]);
        const auto bu = static_cast<NodeId>(b >> 32);
        const auto bv = static_cast<NodeId>(b & 0xFFFFFFFFu);
        const double wb = b == key ? kw
                                   : geometry::distance(points_[bu], points_[bv]);
        if (wa != wb) return wa < wb;
        return a < b;
      });
  EMST_ASSERT_MSG(it != edge_ranks_.end() && *it == key,
                  "edge_rank: pair is not an edge of the topology");
  return static_cast<std::uint32_t>(it - edge_ranks_.begin());
}

}  // namespace emst::sim
