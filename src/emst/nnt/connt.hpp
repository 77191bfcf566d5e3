// Co-NNT — the coordinate-based O(1)-energy spanning tree (paper §VI,
// Thm 6.2).
//
// Every node u (knowing its own coordinates) probes for its nearest
// higher-ranked node with doubling radii rᵢ = √(2ⁱ/n), i = 1 … ⌈lg(n·L_u²)⌉:
//   - u locally broadcasts a REQUEST carrying its coordinates at power rᵢ
//     (cost rᵢ^α);
//   - every node v within rᵢ with rank(v) > rank(u) REPLIES (unicast,
//     cost d(u,v)^α);
//   - if any reply arrives, u sends a CONNECTION message to the nearest
//     replier and stops; otherwise it doubles the radius.
// A node that exhausts L_u without replies is the top-ranked node and simply
// terminates. The first round with a reply necessarily contains the global
// nearest higher-ranked node, so the output is exactly the NNT.
//
// Expected totals (Thm 6.2): O(n) messages and O(1) energy; the tree is an
// O(1) approximation of the MST in both Σ|e| and Σ|e|² (Thm 6.1).
//
// The result is the shared `sim::RunResult` (`phases` = the deepest doubling
// round any node used) plus the parent array and the longest tree edge.
#pragma once

#include "emst/geometry/pathloss.hpp"
#include "emst/ghs/common.hpp"
#include "emst/nnt/rank.hpp"
#include "emst/sim/run_config.hpp"
#include "emst/sim/topology.hpp"

namespace emst::nnt {

/// Co-NNT tuning, next to the shared `sim::RunConfig`. Crash-only (fail-stop)
/// fault models are survived by epoch restart on the actor execution
/// (docs/ROBUSTNESS.md; `runs_actor`); ARQ and message loss are asserted off,
/// the protocol has no loss recovery.
struct CoNntOptions {
  RankScheme scheme = RankScheme::kDiagonal;
  /// Assumed network-size knowledge: the protocol needs only a Θ(n)
  /// estimate (Thm 6.2); scale the true n to emulate estimation error.
  double n_estimate_factor = 1.0;
};

/// The breakdown splits Co-NNT traffic into kRequest / kReply / kConnection
/// kinds; the placement witnesses stay zero on the choreographed form (it
/// has no actor).
struct CoNntResult : sim::RunResult {
  std::vector<graph::NodeId> parent;  ///< kNoNode for the top-ranked node
  double max_connect_distance = 0.0;  ///< longest tree edge (Lemma 6.3 check)
};

/// Whether `run_connt` executes the node-actor form under `cfg`: fail-stop
/// epochs need real in-flight messages, and rank processes run only actors,
/// so faults or ranks send the run there. The facade's resolved driver
/// name (`emst::resolved_driver_name`) reads the same rule.
[[nodiscard]] inline bool runs_actor(const sim::RunConfig& cfg) noexcept {
  return cfg.faults.enabled() || cfg.ranks > 0;
}

/// Run the distributed Co-NNT construction. Probe radii may exceed the
/// topology's max radius (power-adaptive transmission; the spatial index
/// resolves deliveries). Templated over the topology backend
/// (`sim::Topology` or `sim::ImplicitTopology`; defined in connt.cpp,
/// explicitly instantiated for both): the choreographed form only needs
/// coordinates and `nodes_within` probes, which both backends answer
/// identically. When `runs_actor(cfg)`, it forwards to
/// `run_connt_actor`; handed a `sim::ImplicitTopology`, it first builds the
/// CSR of the same points and radius, with bitwise the same result.
template <typename Topo>
[[nodiscard]] CoNntResult run_connt(const Topo& topo,
                                    const sim::RunConfig& cfg = {},
                                    const CoNntOptions& options = {});

/// The same protocol executed as a message-driven actor system over the
/// network engine (REQUEST broadcast / REPLY unicast / CONNECTION unicast
/// as real in-flight messages), on the CSR the engines run on.
/// Cross-validates `run_connt`: identical parents, energy, and message
/// counts (tested); `run_connt` is the faster harness path.
[[nodiscard]] CoNntResult run_connt_actor(const sim::Topology& topo,
                                          const sim::RunConfig& cfg = {},
                                          const CoNntOptions& options = {});

}  // namespace emst::nnt
