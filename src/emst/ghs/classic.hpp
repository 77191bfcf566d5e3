// Classical Gallager–Humblet–Spira distributed MST (TOPLAS 1983) — the
// paper's baseline (§III, §VII "GHS").
//
// Faithful reconstruction of the seven-message-type algorithm: CONNECT,
// INITIATE, TEST, ACCEPT, REJECT, REPORT, CHANGE-ROOT, with fragment levels,
// deferred message processing, merge/absorb semantics, and per-edge states
// Basic / Branch / Rejected. It runs over the synchronous round network
// (messages sent in round t arrive in round t+1; per-receiver processing is
// serial), which realizes a legal asynchronous execution, so the original
// correctness proof applies verbatim.
//
// Message complexity is the classical O(|E| + n log n); at the connectivity
// radius r = Θ(√(log n / n)) every message costs up to r² = Θ(log n / n),
// which is what produces the Θ(log² n) average energy the paper measures
// (Fig 3, slope ≈ 2 in log W vs log log n). With `record_breakdown`, the
// result's breakdown holds the per-type message anatomy: each type is
// charged to its own `sim::MsgKind` cell (`to_msg_kind`) of `PhaseTag::kRun`.
#pragma once

#include <vector>

#include "emst/geometry/pathloss.hpp"
#include "emst/ghs/common.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/run_config.hpp"
#include "emst/sim/topology.hpp"

namespace emst::ghs {

/// How a node discovers its minimum outgoing edge.
enum class MoeStrategy {
  /// Original 1983 protocol: TEST basic edges in ascending weight until the
  /// first ACCEPT; REJECTed (intra-fragment) edges are never retried.
  kTestAll,
  /// The paper's §V-A modification, made asynchrony-safe: every node caches
  /// (neighbor → fragment name) from local-broadcast announcements sent when
  /// a node's fragment name changes. A cache hit with the node's own name
  /// proves the edge internal (fragments never split), so it is rejected
  /// with ZERO messages; the cheapest cache-miss candidate is still
  /// confirmed with one TEST (the cache may be stale the other way), which
  /// keeps the original level-based correctness argument intact.
  kCachedConfirm,
};

/// Classic-GHS tuning, next to the shared `sim::RunConfig`, whose fault model
/// must be crash-only and ARQ off (the 1983 protocol has no loss recovery —
/// asserted).
struct ClassicGhsOptions {
  /// Operating transmission radius; edges longer than this are invisible.
  /// Must be ≤ the topology's max radius. <= 0 means "use max radius".
  double radius = 0.0;
  MoeStrategy moe = MoeStrategy::kTestAll;
  /// Message-delay model. The default is the paper's synchronous network;
  /// nonzero max_extra_delay exercises GHS's native asynchronous setting
  /// (per-edge FIFO preserved), under which the output MUST be unchanged.
  sim::DelayModel delays{};
  /// Nodes that wake spontaneously in round 0. Empty = everyone (the
  /// experiments' setting). Any other node wakes when its first message
  /// arrives — the lower bound's assumption (2) in §IV. Components with no
  /// spontaneous starter never participate.
  std::vector<NodeId> spontaneous_wakeups{};
};

/// Run classical GHS on `topo`. On a disconnected visibility graph, each
/// component (with a spontaneous starter) computes its own MST; with the
/// default wake-everyone setting the result is the minimum spanning forest.
///
/// The protocol keeps a Basic/Branch/Rejected state per incident edge and
/// names fragments by canonical edge index, so it needs Θ(m) memory on any
/// backend and runs on the CSR only. `emst::run` serves a
/// `sim::ImplicitTopology` caller by building the CSR from the same points
/// and radius; the memory-lean path is the modified/EOPT family.
[[nodiscard]] sim::RunResult run_classic_ghs(
    const sim::Topology& topo, const sim::RunConfig& cfg = {},
    const ClassicGhsOptions& options = {});

}  // namespace emst::ghs
