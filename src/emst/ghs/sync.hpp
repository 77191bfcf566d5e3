// Phase-synchronous GHS and the paper's *modified* GHS (§V-A).
//
// Each phase, every fragment: (1) floods an INITIATE down its fragment tree,
// (2) every member determines its local minimum outgoing edge (MOE),
// (3) a REPORT convergecast carries the fragment MOE to the leader,
// (4) the leader CHANGE-ROOTs to the MOE endpoint, which sends CONNECT, and
// (5) fragments linked by chosen MOEs merge (Borůvka contraction).
//
// The two MOE-discovery modes realize the baseline/modified split:
//  - `neighbor_cache = false` (classic flavour): a node probes its basic
//    edges in ascending weight with TEST messages; the probed neighbor
//    answers ACCEPT/REJECT, and rejected (intra-fragment) edges are never
//    probed again — the classical O(|E| + n·φ) test/reject budget.
//  - `neighbor_cache = true` (modified GHS): every node caches each
//    neighbor's fragment id; after a merge only nodes whose id changed
//    announce it with ONE local broadcast, and MOE discovery is a zero-
//    message table lookup. Message complexity drops to O(n·φ).
//
// Step-2 specific options (paper §V-A, last paragraph):
//  - passive fragments ("the giant") never initiate, test, or report — they
//    only accept CONNECT messages from small fragments;
//  - a merge group containing a passive fragment keeps the passive
//    fragment's id, so its members never re-announce.
//
// The run can be seeded with an existing fragment forest (EOPT Step 2
// continues from the Step-1 fragments). `run_sync_ghs` owns the run's meter
// and fault session and fills the result from them; it nests the shared
// `sim::RunResult` as `run`, next to the fragment forest and trajectory
// only this driver reports. EOPT runs its steps as `run_sync_ghs_stage`
// calls on a meter and session of its own.
//
// Fault-aware mode (docs/ROBUSTNESS.md): with a `FaultModel` and/or ARQ
// enabled, every driver-charged unicast becomes a stop-and-wait ARQ session
// (`sim::ArqLink`), announcements suffer per-receiver drops, crashed nodes
// go silent, and each phase only commits a fragment's MOE when the fragment
// had complete information (intact waves, no inconclusive probes) — a
// fragment with any give-up simply retries next phase. Crash repair runs at
// phase boundaries: tree edges incident to crashed nodes are removed, the
// surviving components re-elect leaders deterministically and re-announce
// (the modeled failure detector). With faults and ARQ both disabled every
// code path, energy total, and round count is byte-identical to the
// fault-free engine.
#pragma once

#include <optional>
#include <utility>

#include "emst/geometry/pathloss.hpp"
#include "emst/ghs/common.hpp"
#include "emst/proto/fragment.hpp"
#include "emst/sim/fault.hpp"
#include "emst/sim/reliable.hpp"
#include "emst/sim/run_config.hpp"

namespace emst::ghs {

/// A fragment forest: per-node fragment leader and the tree edges built so
/// far. Fragment ids are leader node ids.
struct FragmentForest {
  std::vector<NodeId> leader;       ///< per node: its fragment's leader
  std::vector<graph::Edge> tree;    ///< edges of all fragment trees
};

/// Sync-GHS tuning; the shared knobs come in the `sim::RunConfig` next to it.
struct SyncGhsOptions {
  /// Operating transmission radius (≤ topology max radius; <= 0 → max).
  double radius = 0.0;
  /// true = modified GHS (neighbor cache + announcements);
  /// false = classic TEST/ACCEPT/REJECT probing.
  bool neighbor_cache = true;
  /// Power-adapt announcements: broadcast only as far as the node's farthest
  /// neighbour in the operating topology instead of the full radius. Reaches
  /// the same receiver set (so correctness is untouched) at d_max^α ≤ r^α
  /// energy; requires the node to know its neighbour distances — which the
  /// modified GHS assumes anyway ("with their distance information", §V-A).
  /// On sparse logical topologies (Gabriel graph) this is the coordinate
  /// lever the §VIII open question asks about.
  bool announce_min_power = false;
  /// Fragments (by leader id) that only accept connections (the giant).
  std::vector<NodeId> passive_fragments;
  /// Merge groups containing a passive fragment keep the passive id.
  bool retain_passive_id = true;
  /// When non-null, every transmission is also appended to this log, one
  /// batch per protocol wave (initial announce; per phase: initiate wave,
  /// MOE probes, report wave, change-root+connect, merge announcements) —
  /// the input to mac::replay_log for end-to-end interference accounting.
  TxLog* transmission_log = nullptr;
};

/// One stage's own detail. Its meter and fault session belong to the caller,
/// who reads totals, ledgers and fault counters off them.
struct SyncGhsStage {
  /// Fragmentation when the stage stopped; `tree` (seed edges included) in
  /// canonical order. Fault-mode runs stop at the phase cap instead of
  /// aborting when permanent losses leave fragments unable to finish
  /// (`hit_phase_cap`; the forest is then partial).
  FragmentForest final_forest;
  /// Fragment count before each phase (Borůvka trajectory: every phase at
  /// least halves the number of active fragments, so the series is
  /// geometric — tested). Under faults, stalled phases repeat counts.
  std::vector<std::size_t> fragments_per_phase;
  std::size_t phases = 0;
  std::size_t fragments = 0;  ///< distinct leaders when the stage stopped
  sim::ArqStats arq;          ///< this stage's ARQ traffic (0 when off)
  bool hit_phase_cap = false;
};

struct SyncGhsResult {
  sim::RunResult run;  ///< from the meter and session run_sync_ghs owns
  FragmentForest final_forest;                   ///< see SyncGhsStage
  std::vector<std::size_t> fragments_per_phase;  ///< see SyncGhsStage
};

/// One run on a caller-owned, caller-configured meter and fault session,
/// from `seed` when non-null: EOPT charges Step 1, its census and Step 2 to
/// one meter under per-step phase scopes. Of `cfg`, a stage reads only
/// `arq`, `oracle` and `threads`.
///
/// Templated over the topology backend (`sim::Topology` or
/// `sim::ImplicitTopology`); defined in sync.cpp and explicitly
/// instantiated for both. Results are bitwise-identical across backends —
/// both enumerate neighbourhoods in the same canonical (weight, id) order
/// and answer the order-free reductions over them identically.
template <typename Topo>
[[nodiscard]] SyncGhsStage run_sync_ghs_stage(
    const Topo& topo, const sim::RunConfig& cfg, const SyncGhsOptions& options,
    const FragmentForest* seed, sim::EnergyMeter& meter,
    sim::FaultInjector& faults);

/// Run phase-synchronous (modified) GHS as the owner of its meter and fault
/// session. `seed` continues from an existing fragment forest; nullopt
/// starts from singletons.
template <typename Topo>
[[nodiscard]] SyncGhsResult run_sync_ghs(
    const Topo& topo, const sim::RunConfig& cfg = {},
    const SyncGhsOptions& options = {},
    const std::optional<FragmentForest>& seed = std::nullopt) {
  sim::EnergyMeter meter(cfg.pathloss);
  sim::FaultInjector faults(cfg.faults);
  cfg.configure(meter, topo.node_count());
  SyncGhsStage stage = run_sync_ghs_stage(
      topo, cfg, options, seed ? &*seed : nullptr, meter, faults);
  SyncGhsResult result;
  result.run.tree = stage.final_forest.tree;
  result.run.fill_from(meter);
  result.run.fill_from(faults);
  result.run.phases = stage.phases;
  result.run.fragments = stage.fragments;
  result.run.arq = stage.arq;
  result.run.hit_phase_cap = stage.hit_phase_cap;
  result.final_forest = std::move(stage.final_forest);
  result.fragments_per_phase = std::move(stage.fragments_per_phase);
  return result;
}

/// Fragment-size census (EOPT Step 2 preamble): one broadcast down and one
/// convergecast up each fragment tree. Returns per-node size of its own
/// fragment; charges 2 unicasts per tree edge to `meter`. With `link`, each
/// tree message runs through the ARQ session simulator instead (give-ups
/// leave that subtree uncounted — the census degrades, it never wedges).
template <typename Topo>
[[nodiscard]] std::vector<std::size_t> fragment_census(
    const Topo& topo, const FragmentForest& forest, sim::EnergyMeter& meter,
    sim::ArqLink* link = nullptr) {
  // Delegates to the shared proto collective; fragment names here are
  // leader ids, so size the count field from the node-id width.
  proto::WireContext ctx =
      proto::WireContext::for_topology(topo.node_count(), topo.edge_count());
  ctx.frag_bits = ctx.id_bits;
  return proto::fragment_census(topo, forest.leader, forest.tree, meter, ctx,
                                link);
}

}  // namespace emst::ghs
