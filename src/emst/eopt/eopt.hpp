// EOPT — the paper's energy-optimal distributed MST algorithm (§V).
//
//   Step 1. Every node limits its transmission radius to r₁ = √(c₁/n)
//           (percolation regime) and runs the modified GHS. WHP this leaves
//           one giant fragment of Θ(n) nodes plus small fragments trapped in
//           O(log² n)-node regions (Thm 5.2).
//   Census. Each fragment computes its size with one broadcast + one
//           convergecast over its Step-1 tree; a fragment larger than
//           β·log² n declares itself the giant.
//   Step 2. All nodes raise the radius to r₂ = √(c₂·log n / n)
//           (connectivity regime, Thm 5.1) and run the modified GHS again.
//           The giant does not initiate — it only accepts CONNECT messages —
//           and keeps its fragment id, so its Θ(n) members never re-announce.
//
// The output is the exact MST of the r₂-visibility graph (which WHP is the
// Euclidean MST of the point set), at O(log n) expected energy /
// O(log n · log log n) WHP — versus Θ(log² n) for classical GHS (Thm 5.3).
//
// Correctness of the two-stage growth: every MSF(G_{r₁}) edge is in MST(G):
// if e ≤ r₁ were the heaviest edge of a cycle C in G, all other edges of C
// would be shorter than r₁, putting C inside G_{r₁} and contradicting
// e ∈ MSF(G_{r₁}) (cycle property). So Step 2 merely finishes Kruskal from a
// correct partial forest.
//
// The result nests the shared `sim::RunResult` as `run` (whole-run tree,
// totals, fault and ARQ counters), next to the stage detail only EOPT has.
#pragma once

#include <cstddef>
#include <vector>

#include "emst/geometry/pathloss.hpp"
#include "emst/ghs/common.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/sim/implicit_topology.hpp"

namespace emst::eopt {

/// EOPT tuning, next to the shared `sim::RunConfig`. ONE fault session spans
/// Step 1 → census → Step 2: loss draws and the crash clock continue across
/// the stage boundaries (docs/ROBUSTNESS.md).
struct EoptOptions {
  /// Step-1 radius factor: r₁ = step1_factor·√(1/n). Paper experiments: 1.4.
  double step1_factor = 1.4;
  /// Step-2 radius factor: r₂ = step2_factor·√(ln n / n). Paper: 1.6.
  double step2_factor = 1.6;
  /// Giant threshold multiplier: a fragment is giant iff size > β·ln² n.
  double beta = 1.0;
  /// Ablation knobs (paper §V-A lists both as the Step-2 optimizations).
  bool giant_passive = true;
  bool giant_keeps_id = true;
  /// Ablation: use classic TEST/ACCEPT/REJECT probing instead of the
  /// neighbor cache in both steps (isolates the cache's contribution).
  bool neighbor_cache = true;
  /// Power-adapt announcements to the farthest neighbour (see
  /// SyncGhsOptions::announce_min_power) — the §VIII coordinate lever.
  bool announce_min_power = false;
};

struct EoptResult {
  /// The whole run: both steps and the census, ARQ and fault counters
  /// included (zero when off). `run.breakdown` is always recorded;
  /// `run.per_node_energy` is filled iff `track_per_node_energy` is set.
  /// `run.hit_phase_cap`: some stage stopped at its phase cap (fault mode
  /// only; the tree is then a partial forest rather than the full MST).
  sim::RunResult run;
  /// Thm 5.3 stage shares, derived from ONE source of truth: the telemetry
  /// breakdown matrix (`run.breakdown.phase_total(...)`), which every
  /// charge lands in exactly once. step1+census+step2 therefore equals the
  /// run total bit-for-bit — the two views cannot disagree (tested).
  sim::Accounting step1;          ///< Step-1 share (incl. initial announce)
  sim::Accounting census;         ///< fragment-size census share
  sim::Accounting step2;          ///< Step-2 share
  std::size_t step1_fragments = 0;
  std::size_t giant_size = 0;     ///< size of the fragment declared giant
  bool giant_found = false;       ///< some fragment exceeded the threshold
  std::size_t step1_phases = 0;
  std::size_t step2_phases = 0;
  double radius1 = 0.0;
  double radius2 = 0.0;
};

/// Run EOPT on a topology whose max radius is ≥ r₂ (build it with
/// `eopt_topology` or `eopt_implicit_topology`, which use exactly r₂).
///
/// `seed` (optional) starts Step 1 from an existing fragment forest instead
/// of singletons — the *repair* use case: after node failures, feed the
/// surviving MST pieces back in and EOPT completes them into the exact new
/// MST, still exploiting the cheap percolation-radius regime. The seed must
/// be a subset of the target MST (surviving MST edges always are, by the
/// cycle property).
///
/// Templated over the topology backend (`sim::Topology` or
/// `sim::ImplicitTopology`; defined in eopt.cpp, explicitly instantiated
/// for both). The implicit backend is the ten-million-node path: EOPT's
/// per-node state is O(n), so peak memory is the points plus the grid
/// (docs/PERF.md).
template <typename Topo>
[[nodiscard]] EoptResult run_eopt(const Topo& topo,
                                  const sim::RunConfig& cfg = {},
                                  const EoptOptions& options = {},
                                  const ghs::FragmentForest* seed = nullptr);

/// Build the topology EOPT expects for n given points: adjacency at
/// r₂ = step2_factor·√(ln n / n).
[[nodiscard]] sim::Topology eopt_topology(std::vector<geometry::Point2> points,
                                          const EoptOptions& options = {});

/// The memory-lean variant: same r₂, but neighbourhoods are regenerated on
/// demand from the cell grid instead of materialized into a CSR.
[[nodiscard]] sim::ImplicitTopology eopt_implicit_topology(
    std::vector<geometry::Point2> points, const EoptOptions& options = {});

}  // namespace emst::eopt
