// Shared definitions for the distributed MST algorithms.
//
// All algorithms identify edges by their index in the topology's canonical
// edge list (sorted by (weight, endpoints)); comparing indices is exactly the
// canonical total order on weights, so fragment names, MOE comparisons and
// report aggregation are integer operations with no floating-point equality
// hazards — and the resulting MST is unique, enabling edge-for-edge
// comparison with Kruskal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "emst/graph/edge.hpp"
#include "emst/proto/ghs_wire.hpp"
#include "emst/sim/topology.hpp"
#include "emst/support/assert.hpp"

namespace emst::ghs {

using NodeId = sim::NodeId;
// The edge-index vocabulary and wire message types moved to the proto layer
// (emst/proto/ghs_wire.hpp) so engines and drivers can share one codec;
// aliases keep every existing ghs:: spelling working.
using EdgeIndex = proto::EdgeIndex;
inline constexpr std::uint64_t kInfEdge = proto::kInfEdge;

/// One logical transmission recorded by an engine for interference replay
/// (mac::replay_log): unicast (to, distance-as-radius) or local broadcast.
struct TxRecord {
  NodeId from = 0;
  NodeId to = 0;           ///< receiver (unicast) — ignored for broadcasts
  double power_radius = 0.0;
  bool is_broadcast = false;
};

/// A batch of transmissions the protocol issues concurrently; batches are
/// ordered in time. Batching is coarse (one batch per protocol wave), which
/// over-states contention — the replay is an upper bound on slots/attempts.
using TxBatch = std::vector<TxRecord>;
using TxLog = std::vector<TxBatch>;

/// Message types of the classical GHS protocol (plus the §V-A announcement),
/// defined in the proto layer next to their wire codecs; `to_msg_kind` names
/// the meter's breakdown cell each type is charged to.
using GhsMsgType = proto::GhsMsgType;
using proto::ghs_msg_type_name;
using proto::to_msg_kind;

/// Position of neighbor v in u's sorted neighbor span (binary search by
/// (weight, id)), given w = d(u, v). A delivery's `distance` is exactly
/// that, since distance_sq is bitwise symmetric. Aborts if (u,v) is not an
/// edge of the topology.
[[nodiscard]] inline std::size_t neighbor_slot(const sim::Topology& topo,
                                               NodeId u, NodeId v, double w) {
  const auto all = topo.neighbors(u);
  // Find the first neighbor with weight >= w, then scan the (tiny) run of
  // equal weights for the id.
  auto it = std::lower_bound(
      all.begin(), all.end(), w,
      [](const graph::Neighbor& nb, double r) { return nb.w < r; });
  while (it != all.end() && it->id != v) ++it;
  EMST_ASSERT_MSG(it != all.end(), "neighbor_slot: (u,v) is not a topology edge");
  return static_cast<std::size_t>(it - all.begin());
}

/// Count the DISTINCT undirected communication pairs a transmission log
/// exercises (a broadcast contributes one pair per receiver within its power
/// radius). This is the quantity the Korach–Moran–Zaks argument (§IV) lower-
/// bounds: any spanning-tree / leader-election algorithm must use
/// Ω(n log n) distinct edges, which Lemma 4.1 then converts into Ω(log n)
/// energy.
template <typename Topo>
[[nodiscard]] std::size_t distinct_pairs_used(const Topo& topo,
                                              const TxLog& log) {
  std::unordered_set<std::uint64_t> pairs;
  auto key = [](NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  for (const TxBatch& batch : log) {
    for (const TxRecord& record : batch) {
      if (record.is_broadcast) {
        for (const graph::Neighbor& nb :
             topo.neighbors_within(record.from, record.power_radius)) {
          pairs.insert(key(record.from, nb.id));
        }
      } else {
        pairs.insert(key(record.from, record.to));
      }
    }
  }
  return pairs.size();
}

}  // namespace emst::ghs
