// The resident deployment behind emst_serve (docs/SERVE.md).
//
// A Session keeps one deployment's MST in memory across mutation batches:
// clients queue node adds / removes / moves, and commit() folds the batch
// into the maintained tree *incrementally* — a local Borůvka-style repair
// over the torn region (proto::FragmentSet repair + merge rounds) followed
// by per-node Chin–Houck insertion for fresh nodes — instead of re-running
// a full driver. A full rebuild through the emst::run facade happens only
// when accumulated churn or radius drift says the incremental invariants
// no longer hold margin.
//
// Exactness contract: after every commit the maintained tree is the MSF of
// the visibility graph G(alive points, radius()) under the repository's
// canonical edge order — differential-checked against graph::kruskal_msf in
// tests/serve_session_test.cpp and, when `verify_after_commit` is set,
// after every single batch.
//
// Why the two-stage repair is exact (docs/SERVE.md has the long form):
//  - Removals: surviving MSF edges remain MSF edges of the shrunk graph
//    (cycle property: deleting vertices deletes cycles, never creates
//    them), so seeding Borůvka from the survivor forest and running blue
//    rule rounds to quiescence yields MSF(G[S]) exactly. Only the split
//    pieces of *torn* fragments can gain outgoing edges — distinct old MSF
//    components are distinct graph components and stay disconnected — so
//    merge rounds scan only those pieces; the largest piece per torn
//    fragment stays passive (the paper's §V-A giant device) and is never
//    enumerated.
//  - Insertions (adds and the re-insert half of moves): one fresh node at
//    a time, edges in canonical ascending order; a cross-component edge
//    links (relabel the smaller side), an intra-component edge evicts the
//    maximum edge on the tree cycle when the new edge beats it
//    (MSF(A ∪ {e}) = MSF(MSF(A) ∪ {e})).
//
// The per-commit FragmentSet construction and leader-array copies are O(n)
// *coordinator-side* bookkeeping; the locality metric `nodes_touched`
// counts only nodes that participate in the repair protocol itself (down
// nodes, members of active pieces, relabeled nodes, cycle-path nodes,
// fresh nodes) — see docs/SERVE.md for the accounting rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/graph/edge.hpp"
#include "emst/run.hpp"

namespace emst::serve {

using NodeId = graph::NodeId;

/// Session policy: how to (re)build, and when incremental repair gives up.
struct SessionConfig {
  /// Facade config used for full (re)builds. The driver must be MSF-exact
  /// (not connt/connt-axis — asserted) and must not inject crashes (a
  /// fail-stop degraded rebuild would desync the resident alive set).
  RunConfig run;
  /// Connectivity-radius factor for the operating radius (rgg/radii.hpp).
  double radius_factor = 1.6;
  /// Rebuild when mutations since the last build exceed this fraction of
  /// the deployment size at build time.
  double rebuild_churn_fraction = 0.25;
  /// Rebuild when the connectivity radius for the current population
  /// drifts more than this fraction from the operating radius.
  double rebuild_radius_drift = 0.15;
  /// Differential-check the maintained tree against kruskal_msf after
  /// every commit (asserts on mismatch). For tests and the bench's
  /// verify phase; too slow for production batches.
  bool verify_after_commit = false;
};

/// What one commit() did, mirrored onto the wire as ServeCommitReport.
struct CommitOutcome {
  std::size_t admitted = 0;       ///< mutation requests folded in
  std::size_t nodes_touched = 0;  ///< protocol participants (see header)
  bool rebuilt = false;           ///< fell back to a full facade rebuild
};

/// Lifetime counters, mirrored onto the wire as ServeStats.
struct SessionStats {
  std::uint64_t commits = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t admitted = 0;
  std::uint64_t nodes_touched = 0;
};

class Session {
 public:
  /// Start with `points` all alive and build their MST through the facade.
  Session(std::vector<geometry::Point2> points, SessionConfig cfg);

  // -- mutation queue (validated now, applied at commit) --------------------

  /// Admit a node at `p`; the id is assigned immediately (monotone, never
  /// reused) but the node joins the tree at the next commit. Returns
  /// graph::kNoNode for non-finite coordinates.
  [[nodiscard]] NodeId queue_add(geometry::Point2 p);
  /// Remove a committed-alive or batch-pending node. False if unknown,
  /// already dead, or already removed in this batch.
  [[nodiscard]] bool queue_remove(NodeId id);
  /// Move a committed-alive or batch-pending node to `p`. False if the
  /// node is unknown/dead/removed or `p` is non-finite.
  [[nodiscard]] bool queue_move(NodeId id, geometry::Point2 p);
  [[nodiscard]] std::size_t pending() const noexcept { return batch_ops_; }

  /// Fold the queued batch into the maintained tree.
  CommitOutcome commit();

  // -- committed state ------------------------------------------------------

  [[nodiscard]] std::size_t alive_count() const noexcept {
    return alive_count_;
  }
  /// Total ids ever assigned (dead slots included).
  [[nodiscard]] std::size_t capacity() const noexcept { return points_.size(); }
  [[nodiscard]] bool alive(NodeId id) const noexcept {
    return id < alive_.size() && alive_[id] != 0;
  }
  [[nodiscard]] geometry::Point2 position(NodeId id) const {
    return points_[id];
  }
  /// Operating radius the maintained tree is exact at.
  [[nodiscard]] double radius() const noexcept { return radius_; }
  /// Maintained MSF in canonical order.
  [[nodiscard]] const std::vector<graph::Edge>& tree() const noexcept {
    return tree_;
  }
  [[nodiscard]] double tree_length() const;
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }

  /// Kruskal over the current committed deployment at radius() — the
  /// differential reference the maintained tree must equal.
  [[nodiscard]] std::vector<graph::Edge> reference_msf() const;

 private:
  struct PendingOp {
    enum Kind : std::uint8_t { kAdd, kRemove, kMove } kind;
    geometry::Point2 pos;  ///< target position for kAdd / kMove
  };

  void full_build(std::size_t& touched);
  void incremental_commit(const std::vector<NodeId>& removes,
                          const std::vector<NodeId>& moves,
                          const std::vector<geometry::Point2>& move_pos,
                          const std::vector<NodeId>& adds,
                          std::size_t& touched);

  // Dynamic cell grid over the committed-alive nodes, cell size = radius_.
  [[nodiscard]] std::uint64_t cell_key(geometry::Point2 p) const;
  void grid_insert(NodeId id, geometry::Point2 p);
  void grid_remove(NodeId id, geometry::Point2 p);
  void grid_rebuild();
  /// All grid nodes within radius_ of p (inclusive, matching the topology
  /// backends), as (id, distance) pairs in bucket order (unsorted).
  void grid_collect(geometry::Point2 p,
                    std::vector<std::pair<NodeId, double>>& out) const;

  SessionConfig cfg_;
  std::vector<geometry::Point2> points_;  ///< indexed by id, never shrinks
  std::vector<char> alive_;
  std::size_t alive_count_ = 0;
  double radius_ = 0.0;
  std::vector<graph::Edge> tree_;  ///< canonical order
  std::vector<NodeId> leader_;     ///< component leader per id (dead: self)
  std::unordered_map<std::uint64_t, std::vector<NodeId>> grid_;

  std::map<NodeId, PendingOp> pending_;  ///< batch, keyed by id (sorted)
  std::size_t batch_ops_ = 0;            ///< admitted requests this batch

  std::size_t n_at_build_ = 0;
  std::size_t churn_since_build_ = 0;
  SessionStats stats_;
};

}  // namespace emst::serve
