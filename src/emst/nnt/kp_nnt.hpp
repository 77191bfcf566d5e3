// KP-NNT — the coordinate-free nearest-neighbour-tree baseline of
// Khan–Pandurangan [14] / Khan–Pandurangan–Kumar [15], discussed in §III:
// "The distributed algorithm of [14, 15] requires only O(log n) energy, but
// it gives an O(log n)-approximation to the MST."
//
// Nodes know NO coordinates. Each node draws a random rank (a seeded random
// permutation stands in for the random choices) and connects to its nearest
// node of higher rank, located with the same doubling-radius probe protocol
// as Co-NNT but with the potential distance replaced by the worst case √2 —
// without geometry there is nothing better to stop on.
//
// Expected totals: the node at rank percentile k/n finds a higher-ranked
// node within ≈ √(1/k) · √(1/n)-ish distance, so Σᵤ energy ≈ Σₖ 1/k =
// Θ(log n) — an O(log n) energy / O(log n)-approximation trade sitting
// strictly between GHS and Co-NNT. This is the paper's related-work
// comparison point, reproduced so the bench table can show all four rows.
// The result is the shared `sim::RunResult` (`phases` = the deepest doubling
// round) plus the parent array and the drawn ranks.
#pragma once

#include "emst/geometry/pathloss.hpp"
#include "emst/sim/run_config.hpp"
#include "emst/sim/topology.hpp"

namespace emst::nnt {

struct KpNntOptions {
  std::uint64_t rank_seed = 0xf005ba11ULL;  ///< the nodes' random choices
  geometry::PathLoss pathloss{};
  double n_estimate_factor = 1.0;
};

struct KpNntResult : sim::RunResult {
  std::vector<graph::NodeId> parent;  ///< kNoNode for the top-ranked node
  std::vector<std::uint32_t> rank;    ///< the drawn ranks (for validation)
  double max_connect_distance = 0.0;
};

[[nodiscard]] KpNntResult run_kp_nnt(const sim::Topology& topo,
                                     const KpNntOptions& options = {});

}  // namespace emst::nnt
