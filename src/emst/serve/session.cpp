#include "emst/serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>
#include <utility>

#include "emst/graph/mst.hpp"
#include "emst/graph/union_find.hpp"
#include "emst/proto/fragment.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/assert.hpp"

namespace emst::serve {

namespace {

constexpr NodeId kNone = graph::kNoNode;

[[nodiscard]] bool finite_point(geometry::Point2 p) noexcept {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

/// Enumerate the smaller of the two tree components containing `a` and `b`
/// (which must be distinct components) by alternating one-node BFS
/// expansions — O(min(|A|, |B|)) work, the classic smaller-half trick.
/// Returns (members of the smaller side, seed of the LARGER side).
std::pair<std::vector<NodeId>, NodeId> smaller_component(
    const std::vector<std::vector<NodeId>>& adj, NodeId a, NodeId b) {
  struct Side {
    std::vector<NodeId> members;
    std::deque<NodeId> frontier;
    std::unordered_set<NodeId> seen;
  };
  Side sa, sb;
  sa.members.push_back(a), sa.frontier.push_back(a), sa.seen.insert(a);
  sb.members.push_back(b), sb.frontier.push_back(b), sb.seen.insert(b);
  auto step = [&adj](Side& s) {
    const NodeId u = s.frontier.front();
    s.frontier.pop_front();
    for (const NodeId v : adj[u]) {
      if (s.seen.insert(v).second) {
        s.members.push_back(v);
        s.frontier.push_back(v);
      }
    }
  };
  while (!sa.frontier.empty() && !sb.frontier.empty()) {
    step(sa);
    step(sb);
  }
  if (sa.frontier.empty()) return {std::move(sa.members), b};
  return {std::move(sb.members), a};
}

/// The unique tree path from `from` to `to` (same component), as the node
/// sequence from → ... → to. Plain BFS with early exit; cost is bounded by
/// the component but typically local — the endpoints are within one radius
/// of each other geometrically.
std::vector<NodeId> tree_path(const std::vector<std::vector<NodeId>>& adj,
                              NodeId from, NodeId to) {
  std::unordered_map<NodeId, NodeId> parent;
  parent.emplace(from, kNone);
  std::deque<NodeId> frontier{from};
  while (!frontier.empty() && parent.count(to) == 0) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const NodeId v : adj[u]) {
      if (parent.emplace(v, u).second) frontier.push_back(v);
    }
  }
  EMST_ASSERT_MSG(parent.count(to) > 0, "tree_path: endpoints disconnected");
  std::vector<NodeId> path;
  for (NodeId u = to; u != kNone; u = parent.at(u)) path.push_back(u);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

Session::Session(std::vector<geometry::Point2> points, SessionConfig cfg)
    : cfg_(std::move(cfg)), points_(std::move(points)) {
  EMST_ASSERT_MSG(cfg_.run.driver != Driver::kCoNnt &&
                      cfg_.run.driver != Driver::kCoNntAxis,
                  "serve sessions need an MSF-exact rebuild driver; the "
                  "Co-NNT schemes build approximate trees");
  for (const geometry::Point2 p : points_)
    EMST_ASSERT_MSG(finite_point(p), "session seeded with non-finite point");
  alive_.assign(points_.size(), 1);
  alive_count_ = points_.size();
  leader_.resize(points_.size());
  for (NodeId u = 0; u < leader_.size(); ++u) leader_[u] = u;
  std::size_t touched = 0;
  full_build(touched);
}

NodeId Session::queue_add(geometry::Point2 p) {
  if (!finite_point(p)) return kNone;
  const NodeId id = static_cast<NodeId>(points_.size());
  points_.push_back(p);
  alive_.push_back(0);
  leader_.push_back(id);
  pending_.emplace(id, PendingOp{PendingOp::kAdd, p});
  ++batch_ops_;
  return id;
}

bool Session::queue_remove(NodeId id) {
  if (const auto it = pending_.find(id); it != pending_.end()) {
    switch (it->second.kind) {
      case PendingOp::kAdd:
        pending_.erase(it);  // cancel the add; the id slot stays dead
        ++batch_ops_;
        return true;
      case PendingOp::kMove:
        it->second.kind = PendingOp::kRemove;  // move-then-remove = remove
        ++batch_ops_;
        return true;
      case PendingOp::kRemove:
        return false;
    }
  }
  if (!alive(id)) return false;
  pending_.emplace(id, PendingOp{PendingOp::kRemove, points_[id]});
  ++batch_ops_;
  return true;
}

bool Session::queue_move(NodeId id, geometry::Point2 p) {
  if (!finite_point(p)) return false;
  if (const auto it = pending_.find(id); it != pending_.end()) {
    switch (it->second.kind) {
      case PendingOp::kAdd:
        points_[id] = p;  // the add lands at the latest position
        it->second.pos = p;
        ++batch_ops_;
        return true;
      case PendingOp::kMove:
        it->second.pos = p;
        ++batch_ops_;
        return true;
      case PendingOp::kRemove:
        return false;
    }
  }
  if (!alive(id)) return false;
  pending_.emplace(id, PendingOp{PendingOp::kMove, p});
  ++batch_ops_;
  return true;
}

CommitOutcome Session::commit() {
  CommitOutcome outcome;
  outcome.admitted = batch_ops_;
  std::vector<NodeId> removes, moves, adds;
  for (const auto& [id, op] : pending_) {  // std::map → ascending ids
    switch (op.kind) {
      case PendingOp::kAdd: adds.push_back(id); break;
      case PendingOp::kRemove: removes.push_back(id); break;
      case PendingOp::kMove:
        moves.push_back(id);
        break;
    }
  }
  // Record move targets before clearing; applied after the old positions
  // leave the grid.
  std::vector<geometry::Point2> move_pos;
  move_pos.reserve(moves.size());
  for (const NodeId id : moves) move_pos.push_back(pending_.at(id).pos);
  pending_.clear();
  batch_ops_ = 0;

  ++stats_.commits;
  stats_.admitted += outcome.admitted;
  if (removes.empty() && moves.empty() && adds.empty()) return outcome;

  const std::size_t n_after = alive_count_ - removes.size() + adds.size();
  churn_since_build_ += removes.size() + moves.size() + adds.size();

  // Rebuild policy: incremental repair holds the operating radius fixed,
  // so give up when churn erodes the margin or the population has drifted
  // far enough that the connectivity radius is wrong for it.
  bool rebuild = n_after < 2;
  if (!rebuild && n_at_build_ > 0 &&
      static_cast<double>(churn_since_build_) >=
          cfg_.rebuild_churn_fraction * static_cast<double>(n_at_build_))
    rebuild = true;
  if (!rebuild) {
    const double target = rgg::connectivity_radius(
        std::max<std::size_t>(2, n_after), cfg_.radius_factor);
    if (std::abs(target - radius_) > cfg_.rebuild_radius_drift * radius_)
      rebuild = true;
  }

  std::size_t touched = 0;
  if (rebuild) {
    for (const NodeId id : removes) {
      alive_[id] = 0;
      --alive_count_;
    }
    for (std::size_t i = 0; i < moves.size(); ++i)
      points_[moves[i]] = move_pos[i];
    for (const NodeId id : adds) {
      alive_[id] = 1;
      ++alive_count_;
    }
    full_build(touched);
    outcome.rebuilt = true;
    ++stats_.rebuilds;
  } else {
    incremental_commit(removes, moves, move_pos, adds, touched);
  }

  outcome.nodes_touched = touched;
  stats_.nodes_touched += touched;
  if (cfg_.verify_after_commit) {
    const std::vector<graph::Edge> ref = reference_msf();
    EMST_ASSERT_MSG(tree_.size() == ref.size() &&
                        std::equal(tree_.begin(), tree_.end(), ref.begin()),
                    "maintained tree diverged from kruskal_msf");
  }
  return outcome;
}

void Session::incremental_commit(const std::vector<NodeId>& removes,
                                 const std::vector<NodeId>& moves,
                                 const std::vector<geometry::Point2>& move_pos,
                                 const std::vector<NodeId>& adds,
                                 std::size_t& touched_out) {
  using FragmentSet = proto::FragmentSet;
  using MergeCandidate = FragmentSet::MergeCandidate;
  const std::size_t capacity = points_.size();
  std::unordered_set<NodeId> touched;

  // Seed the fragment runtime from the committed forest.
  FragmentSet fs(capacity);
  fs.assign_leaders(leader_);
  for (const graph::Edge& e : tree_) fs.add_tree_edge(e);

  // Down = removed ∪ moved (a move is a remove at the old position plus a
  // fresh insert at the new one).
  std::vector<bool> down(capacity, false);
  std::vector<NodeId> down_list;
  for (const NodeId id : removes) down[id] = true, down_list.push_back(id);
  for (const NodeId id : moves) down[id] = true, down_list.push_back(id);

  // Piece representatives, collected BEFORE repair: every split piece of a
  // torn fragment contains a surviving tree-neighbor of a down node (the
  // boundary), so these reps cover all pieces. Grouped by torn old
  // fragment — pieces of distinct old fragments stay mutually
  // disconnected, so Borůvka runs per group.
  std::map<NodeId, std::vector<NodeId>> group_reps;  // old leader → reps
  for (const NodeId d : down_list) {
    for (const NodeId v : fs.tree_adjacency()[d]) {
      if (!down[v]) group_reps[fs.leader(d)].push_back(v);
    }
    touched.insert(d);
  }

  for (const NodeId u : fs.repair(down)) touched.insert(u);

  // Old positions leave the grid; removed nodes die, moved nodes become
  // fresh (re-inserted in Stage B). The grid now holds exactly S, the
  // surviving static population.
  for (const NodeId id : removes) {
    grid_remove(id, points_[id]);
    alive_[id] = 0;
    --alive_count_;
  }
  for (std::size_t i = 0; i < moves.size(); ++i) {
    grid_remove(moves[i], points_[moves[i]]);
    points_[moves[i]] = move_pos[i];  // re-lands here in Stage B
  }

  // Enumerate piece members per group, all but the largest piece: pieces
  // advance round-robin one BFS pop at a time, and the last piece still
  // growing when every other has finished is the group's passive giant —
  // never enumerated, never scanned (§V-A's device, O(sum of small
  // pieces) work).
  std::map<NodeId, std::vector<NodeId>> active;  // piece leader → members
  std::unordered_set<NodeId> passive;
  const auto& adj = fs.tree_adjacency();
  for (auto& [old_leader, reps] : group_reps) {
    struct Piece {
      NodeId leader;
      std::vector<NodeId> members;
      std::deque<NodeId> frontier;
      bool done = false;
    };
    std::vector<Piece> pieces;
    std::unordered_set<NodeId> piece_seen;  // piece leaders already claimed
    std::unordered_set<NodeId> visited;     // across the group (disjoint)
    for (const NodeId rep : reps) {
      const NodeId pl = fs.leader(rep);
      if (!piece_seen.insert(pl).second) continue;
      Piece p;
      p.leader = pl;
      p.members.push_back(pl);
      p.frontier.push_back(pl);
      visited.insert(pl);
      pieces.push_back(std::move(p));
    }
    if (pieces.size() == 1) continue;  // nothing to re-merge in this group
    std::size_t unfinished = pieces.size();
    while (unfinished > 1) {
      for (Piece& p : pieces) {
        if (p.done) continue;
        if (p.frontier.empty()) {
          p.done = true;
          --unfinished;
          if (unfinished <= 1) break;
          continue;
        }
        const NodeId u = p.frontier.front();
        p.frontier.pop_front();
        for (const NodeId v : adj[u]) {
          if (visited.insert(v).second) {
            p.members.push_back(v);
            p.frontier.push_back(v);
          }
        }
      }
    }
    // The survivor (or, if all drained in the final sweep, the largest) is
    // passive; everyone else activates.
    const Piece* giant = nullptr;
    for (const Piece& p : pieces) {
      if (!p.done && !p.frontier.empty()) giant = &p;
    }
    if (giant == nullptr) {
      for (const Piece& p : pieces) {
        if (giant == nullptr || p.members.size() > giant->members.size() ||
            (p.members.size() == giant->members.size() &&
             p.leader < giant->leader))
          giant = &p;
      }
    }
    const NodeId giant_leader = giant->leader;
    passive.insert(giant_leader);
    for (Piece& p : pieces) {
      if (p.leader == giant_leader) continue;
      for (const NodeId m : p.members) touched.insert(m);
      active.emplace(p.leader, std::move(p.members));
    }
  }

  // Stage A — Borůvka rounds over the active pieces: each active fragment
  // commits its minimum outgoing edge (blue rule, canonical tie-break) and
  // the shared merge contracts them, giants keeping their ids. Fragment
  // count strictly drops every round, and a fragment with no outgoing edge
  // is a complete component forever (S is static), so this terminates.
  std::vector<std::pair<NodeId, double>> nbs;
  while (!active.empty()) {
    std::vector<std::pair<NodeId, MergeCandidate>> selected;
    for (const auto& [L, members] : active) {
      MergeCandidate best;
      for (const NodeId u : members) {
        grid_collect(points_[u], nbs);
        for (const auto& [v, w] : nbs) {
          if (fs.leader(v) == L) continue;
          const MergeCandidate cand{w, u, v};
          if (FragmentSet::candidate_less(cand, best)) best = cand;
        }
      }
      if (best.valid()) selected.emplace_back(L, best);
    }
    if (selected.empty()) break;
    for (const NodeId u : fs.merge(selected, passive, true)) touched.insert(u);
    std::map<NodeId, std::vector<NodeId>> next;
    for (auto& [L, members] : active) {
      const NodeId nl = fs.leader(L);
      if (passive.count(nl) > 0) continue;  // absorbed into the giant
      auto& bucket = next[nl];
      bucket.insert(bucket.end(), members.begin(), members.end());
    }
    active = std::move(next);
  }

  // Stage B — fresh nodes (adds + re-landing moves) join one at a time,
  // ascending id, edges in canonical ascending order: link across
  // components (relabel the smaller side), or evict the maximum cycle edge
  // when beaten.
  std::vector<NodeId> fresh = adds;
  fresh.insert(fresh.end(), moves.begin(), moves.end());
  std::sort(fresh.begin(), fresh.end());
  for (const NodeId v : fresh) {
    touched.insert(v);
    grid_collect(points_[v], nbs);
    std::vector<graph::Edge> edges;
    edges.reserve(nbs.size());
    for (const auto& [u, w] : nbs)
      edges.push_back(graph::Edge{v, u, w}.canonical());
    graph::sort_edges(edges);
    for (const graph::Edge& e : edges) {
      const NodeId u = e.u == v ? e.v : e.u;
      if (fs.leader(u) != fs.leader(v)) {
        auto [small, big_seed] = smaller_component(fs.tree_adjacency(), u, v);
        const NodeId nl = fs.leader(big_seed);
        for (const NodeId m : small) {
          fs.set_leader(m, nl);
          touched.insert(m);
        }
        fs.add_tree_edge(e);
      } else {
        const std::vector<NodeId> path = tree_path(fs.tree_adjacency(), u, v);
        graph::Edge worst{kNone, kNone, 0.0};
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const graph::Edge cand =
              graph::Edge{path[i], path[i + 1],
                          geometry::distance(points_[path[i]],
                                             points_[path[i + 1]])}
                  .canonical();
          if (worst.u == kNone || graph::edge_less(worst, cand)) worst = cand;
        }
        for (const NodeId m : path) touched.insert(m);
        if (graph::edge_less(e, worst)) {
          fs.remove_tree_edge(worst.u, worst.v);
          fs.add_tree_edge(e);
        }
      }
    }
    grid_insert(v, points_[v]);
    if (alive_[v] == 0) {
      alive_[v] = 1;
      ++alive_count_;
    }
  }

  leader_ = fs.leaders();
  tree_ = fs.tree();
  graph::sort_edges(tree_);
  touched_out = touched.size();
}

void Session::full_build(std::size_t& touched) {
  std::vector<NodeId> ids;
  std::vector<geometry::Point2> pts;
  ids.reserve(alive_count_), pts.reserve(alive_count_);
  for (NodeId u = 0; u < points_.size(); ++u) {
    if (alive_[u] != 0) {
      ids.push_back(u);
      pts.push_back(points_[u]);
    }
  }
  radius_ = rgg::connectivity_radius(std::max<std::size_t>(2, ids.size()),
                                     cfg_.radius_factor);
  tree_.clear();
  if (ids.size() >= 2) {
    Instance inst;
    inst.points = std::move(pts);
    inst.radius = radius_;
    const RunResult res = emst::run(inst, cfg_.run);
    EMST_ASSERT_MSG(res.injected_crashes.empty(),
                    "serve rebuild crashed nodes; the resident alive set "
                    "would desync (disable chaos for serve sessions)");
    tree_.reserve(res.tree.size());
    for (const graph::Edge& e : res.tree)
      tree_.push_back(graph::Edge{ids[e.u], ids[e.v], e.w}.canonical());
    graph::sort_edges(tree_);
  }
  // Leaders: minimum alive id per component, deterministic for any build.
  graph::UnionFind uf(points_.size());
  for (const graph::Edge& e : tree_) uf.unite(e.u, e.v);
  std::unordered_map<NodeId, NodeId> comp_min;
  for (NodeId u = 0; u < points_.size(); ++u) leader_[u] = u;
  for (const NodeId u : ids) comp_min.try_emplace(uf.find(u), u);
  for (const NodeId u : ids) leader_[u] = comp_min.at(uf.find(u));
  grid_rebuild();
  n_at_build_ = ids.size();
  churn_since_build_ = 0;
  touched = ids.size();  // a full build touches the whole deployment
}

double Session::tree_length() const {
  double total = 0.0;
  for (const graph::Edge& e : tree_) total += e.w;
  return total;
}

std::vector<graph::Edge> Session::reference_msf() const {
  std::vector<graph::Edge> edges;
  std::vector<std::pair<NodeId, double>> nbs;
  for (NodeId u = 0; u < points_.size(); ++u) {
    if (alive_[u] == 0) continue;
    grid_collect(points_[u], nbs);
    for (const auto& [v, w] : nbs) {
      if (v > u) edges.push_back(graph::Edge{u, v, w});
    }
  }
  return graph::kruskal_msf(points_.size(), std::move(edges));
}

std::uint64_t Session::cell_key(geometry::Point2 p) const {
  const auto cx =
      static_cast<std::int64_t>(std::floor(p.x / radius_));
  const auto cy =
      static_cast<std::int64_t>(std::floor(p.y / radius_));
  // Truncate to 32 bits per axis; far-apart aliased cells only add
  // candidates the distance filter rejects.
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

void Session::grid_insert(NodeId id, geometry::Point2 p) {
  grid_[cell_key(p)].push_back(id);
}

void Session::grid_remove(NodeId id, geometry::Point2 p) {
  auto& bucket = grid_.at(cell_key(p));
  const auto it = std::find(bucket.begin(), bucket.end(), id);
  EMST_ASSERT_MSG(it != bucket.end(), "grid_remove: node not in its cell");
  bucket.erase(it);
}

void Session::grid_rebuild() {
  grid_.clear();
  for (NodeId u = 0; u < points_.size(); ++u) {
    if (alive_[u] != 0) grid_insert(u, points_[u]);
  }
}

void Session::grid_collect(geometry::Point2 p,
                           std::vector<std::pair<NodeId, double>>& out) const {
  out.clear();
  const double r_sq = radius_ * radius_;
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / radius_));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / radius_));
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx + dx))
           << 32) |
          static_cast<std::uint32_t>(cy + dy);
      const auto it = grid_.find(key);
      if (it == grid_.end()) continue;
      for (const NodeId v : it->second) {
        const double d_sq = geometry::distance_sq(p, points_[v]);
        if (d_sq <= r_sq) out.emplace_back(v, std::sqrt(d_sq));
      }
    }
  }
}

}  // namespace emst::serve
