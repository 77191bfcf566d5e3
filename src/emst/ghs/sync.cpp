#include "emst/ghs/sync.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "emst/proto/fragment.hpp"
#include "emst/sim/implicit_topology.hpp"
#include "emst/sim/oracle.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/parallel.hpp"

namespace emst::ghs {
namespace {

constexpr NodeId kNone = graph::kNoNode;
constexpr NodeId kUnset = kNone - 1;  // memo entry not computed yet
constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

/// Driver for one phase-synchronous GHS run. The protocol choreography is
/// deterministic, so the driver walks fragment trees itself and charges the
/// meter for every message the distributed execution would send; the only
/// state a node may consult is state the message flow actually delivered to
/// it (its own fragment id, its neighbor cache, probe replies). The meter
/// and fault session are its caller's.
///
/// Templated over the topology backend: the engine only asks for
/// neighbourhoods (`neighbors_within`), their order-free reductions
/// (`reach_within`, `lightest_within`), distances and counts, all of which
/// both the materialized and the implicit topology answer identically — so
/// both backends produce bitwise-identical runs.
///
/// Memory model (docs/PERF.md): per-node state is sparse, per the paper's
/// modified GHS. The fault-free cached flavour holds the fragment leader
/// array plus three O(n) memo arrays, 12 B/node: each node's receiver count
/// and farthest receiver (its announce reach) and its lightest neighbour
/// outside its fragment. A complete, current neighbor cache is semantically
/// identical to "look up the neighbour's leader", so the cache itself is
/// never materialised. The explicit per-node cache maps exist only under
/// faults (where entries can go stale) and the per-node rejected sets only
/// in probe mode. Nothing in the engine is Θ(m) or indexed by a global
/// edge list.
///
/// Fault mode (docs/ROBUSTNESS.md): every driver unicast becomes a
/// stop-and-wait ARQ session (sim::ArqLink), so the meter pays for every
/// retransmission and every ACK; a session that gives up means the payload
/// never arrived, and the affected fragment aborts its MOE selection for
/// the phase rather than commit to partial information. Crash repair runs
/// at phase boundaries. With faults and ARQ both off, every branch below
/// reduces to the fault-free engine — byte-identical energy and rounds.
template <typename Topo>
class SyncGhsEngine {
 public:
  SyncGhsEngine(const Topo& topo, const sim::RunConfig& cfg,
                const SyncGhsOptions& options, const FragmentForest* seed,
                sim::EnergyMeter& meter, sim::FaultInjector& faults)
      : topo_(topo),
        cfg_(cfg),
        opts_(options),
        radius_(options.radius > 0.0 ? options.radius : topo.max_radius()),
        meter_(meter),
        fault_(&faults),
        link_(fault_, cfg.arq),
        faulty_(fault_->enabled() || cfg.arq.enabled),
        frags_(topo.node_count()) {
    EMST_ASSERT(radius_ <= topo_.max_radius() * (1.0 + 1e-12));
    const std::size_t n = topo_.node_count();
    // Sparse per-node state: the explicit cache only under faults (stale
    // entries are then possible, so it carries real information), the
    // rejected sets only in probe mode.
    if (faulty_ && opts_.neighbor_cache) cache_.assign(n, {});
    if (!opts_.neighbor_cache) rejected_.assign(n, {});
    if (!faulty_ && opts_.neighbor_cache) {
      EMST_ASSERT(n < kUnset);
      reach_count_.assign(n, 0);
      farthest_.assign(n, kUnset);
      lightest_out_.assign(n, kUnset);
    }
    if (fault_->enabled()) was_crashed_.assign(n, false);
    if (seed != nullptr) {
      EMST_ASSERT(seed->leader.size() == n);
      frags_.assign_leaders(seed->leader);
      for (const graph::Edge& e : seed->tree) frags_.add_tree_edge(e);
    }
    for (NodeId p : opts_.passive_fragments) passive_.insert(p);
    // Wire sizing: this driver names fragments by leader id, so fragment
    // fields are id-width; the choreographed charges bill each message type
    // at its worst-case encoded size (a real transmitter cannot shrink a
    // frame it has not built yet).
    wire_ctx_ = proto::WireContext::for_topology(n, topo.edge_count());
    wire_ctx_.frag_bits = wire_ctx_.id_bits;
    for (std::size_t t = 0; t < type_bits_.size(); ++t)
      type_bits_[t] =
          proto::max_encoded_bits(static_cast<GhsMsgType>(t), wire_ctx_);
    if (fault_->enabled()) fault_->set_chaos_env(n, topo_.points());
    // Safety cap on phases, 4·log2(n) + 16; fault-mode runs burn phases on
    // stalls and repairs, so they get four times the headroom.
    max_phases_ = (static_cast<std::size_t>(
                       4.0 * std::log2(static_cast<double>(n) + 2.0)) +
                   16) *
                  (faulty_ ? 4 : 1);
  }

  SyncGhsStage run() {
    // Modified GHS fills every neighbour cache with one id announcement per
    // node before phase 1; EOPT's Step 2 announces again, since its radius
    // grew after Step 1 filled the caches at r₁.
    if (opts_.neighbor_cache) announce_all();
    SyncGhsStage stage;
    for (;;) {
      stage.fragments_per_phase.push_back(frags_.fragment_count());
      if (!run_phase()) break;
      ++stage.phases;
      if (stage.phases > max_phases_) {
        // Fault-free runs treat the cap as a hard invariant; under faults a
        // permanently dead neighborhood can legitimately starve a fragment,
        // so stop gracefully and report the partial forest.
        EMST_ASSERT_MSG(faulty_, "sync GHS exceeded phase cap");
        stage.hit_phase_cap = true;
        break;
      }
    }
    stage.final_forest.leader = frags_.leaders();
    stage.final_forest.tree = frags_.tree();
    graph::sort_edges(stage.final_forest.tree);
    stage.fragments = frags_.fragment_count();
    stage.arq = link_.stats();
    return stage;
  }

 private:
  using Candidate = proto::FragmentSet::MergeCandidate;

  /// Result of one member's MOE scan. `conclusive == false` means some edge
  /// cheaper than `best` could not be classified (probe gave up, neighbor
  /// down) — the fragment must not trust `best` this phase.
  struct MoeScan {
    Candidate best;
    bool conclusive = true;
  };

  /// BFS order of one fragment (order[0] = leader) plus its depth; parents
  /// live in the engine-wide flat `parent_` array (fragments are disjoint
  /// node sets, so the array is shared without conflicts).
  struct FlatView {
    std::vector<NodeId> order;
    std::size_t max_depth = 0;
  };

  [[nodiscard]] std::uint32_t bits_of(GhsMsgType type) const noexcept {
    return type_bits_[static_cast<std::size_t>(type)];
  }

  /// Advance simulated time on the meter AND the fault clock together. This
  /// is the driver's round barrier: chaos-controller consults happen inside
  /// advance_rounds (one per round), injections are mirrored into the
  /// telemetry stream here, and the invariant oracle's per-round hook runs.
  void tick(std::uint64_t k) {
    meter_.tick_rounds(k);
    if (faulty_) {
      fault_->advance_rounds(k);
      for (const sim::CrashWindow& w : fault_->take_new_injections())
        meter_.note_event(sim::EventType::kCrashInject, w.node,
                          sim::kNoEventNode, 0.0, w.until);
    }
    if (cfg_.oracle != nullptr)
      cfg_.oracle->on_round(meter_.totals().rounds, meter_);
  }

  /// Charge one logical unicast into a wave buffer (for per-wave batching
  /// of the interference log), tagged with its protocol message type for
  /// telemetry / breakdown attribution. In fault mode the message runs a
  /// full ARQ session; the return value says whether the payload reached v.
  /// Fault-free mode always delivers.
  bool charge_wave(TxBatch& wave, NodeId u, NodeId v, GhsMsgType type) {
    const double d = topo_.distance(u, v);
    meter_.set_kind(to_msg_kind(type));
    meter_.set_fragment(frags_.leader(u));
    // The choreographed driver never materialises a frame, so it bills the
    // type's worst-case wire size; the ARQ link reads the same ambient bits
    // as the session payload.
    meter_.set_bits(bits_of(type));
    if (!faulty_) {
      meter_.charge_unicast(u, v, d);
      meter_.clear_bits();
      if (opts_.transmission_log != nullptr) wave.push_back({u, v, d, false});
      return true;
    }
    const sim::ArqOutcome out = link_.transmit(meter_, u, v, d);
    meter_.clear_bits();
    phase_extra_rounds_ += out.extra_rounds;
    if (opts_.transmission_log != nullptr) {
      for (std::uint32_t i = 0; i < out.data_attempts; ++i)
        wave.push_back({u, v, d, false});
      for (std::uint32_t i = 0; i < out.ack_attempts; ++i)
        wave.push_back({v, u, d, false});
    }
    return out.delivered;
  }

  /// Close the current concurrency batch (no-op when not logging or empty).
  void flush_batch() {
    if (opts_.transmission_log == nullptr || batch_.empty()) return;
    opts_.transmission_log->push_back(std::move(batch_));
    batch_.clear();
  }

  /// Charge u's id broadcast to `receivers` nodes. With announce_min_power
  /// the transmit power shrinks to the farthest receiver's distance —
  /// identical receiver set, less energy.
  void charge_announce(NodeId u, std::size_t receivers, double farthest) {
    const double power = opts_.announce_min_power ? farthest : radius_;
    meter_.charge_broadcast(u, power, receivers);
    if (opts_.transmission_log != nullptr) {
      batch_.push_back({u, u, power, true});
    }
  }

  /// One local broadcast of u's fragment id; every receiver updates its
  /// cached entry for u. Announcements carry NO ARQ (they are broadcasts):
  /// in fault mode each receiver independently draws a channel fate, in
  /// neighbour order, and missed updates are repaired lazily by the reliable
  /// TEST path in local_moe. Fault-free runs skip the receiver bookkeeping
  /// entirely (the leader array already holds what a complete cache would),
  /// so the charge needs only the receiver count and the farthest receiver
  /// — a node's reach at a fixed radius never changes, so it is computed
  /// once per node and remembered.
  void announce(NodeId u) {
    meter_.set_kind(sim::MsgKind::kAnnounce);
    meter_.set_fragment(frags_.leader(u));
    meter_.set_bits(bits_of(GhsMsgType::kAnnounce));
    if (fault_->enabled() && fault_->crashed(u)) {
      ++fault_->stats().suppressed;
      meter_.note_event(sim::EventType::kSuppress, u, sim::kNoEventNode,
                        radius_);
      meter_.clear_bits();
      return;
    }
    if (!faulty_) {
      if (farthest_[u] == kUnset) {
        const graph::Reach reach = topo_.reach_within(u, radius_);
        reach_count_[u] = static_cast<std::uint32_t>(reach.count);
        farthest_[u] = reach.farthest.id;
      }
      const NodeId far = farthest_[u];
      // distance() is bitwise the neighbour weight (distance_sq is symmetric).
      charge_announce(u, reach_count_[u],
                      far == kNone ? 0.0 : topo_.distance(u, far));
      meter_.clear_bits();
      return;
    }
    const auto receivers = topo_.neighbors_within(u, radius_);
    charge_announce(u, receivers.size(),
                    receivers.empty() ? 0.0 : receivers.back().w);
    if (!cache_.empty()) {
      for (const graph::Neighbor& nb : receivers) {
        if (fault_->enabled()) {
          if (fault_->drop(u, nb.id)) {
            ++fault_->stats().lost;
            meter_.note_event(sim::EventType::kLoss, u, nb.id, nb.w);
            continue;
          }
          if (fault_->crashed(nb.id)) {
            ++fault_->stats().dropped_crashed;
            meter_.note_event(sim::EventType::kCrashDrop, u, nb.id, nb.w);
            continue;
          }
        }
        cache_[nb.id][u] = frags_.leader(u);
      }
    }
    meter_.clear_bits();
  }

  /// Repair-time announcement (the modeled failure detector): charged like
  /// a regular announcement, but delivered to every live neighbor — the
  /// repair channel keeps retrying until the neighborhood agrees. This is
  /// what restores the containment argument for stale "same fragment"
  /// cache hits after a split (docs/ROBUSTNESS.md).
  void announce_repair(NodeId u) {
    if (fault_->crashed(u)) return;  // dead nodes stay silent
    meter_.set_kind(sim::MsgKind::kAnnounce);
    meter_.set_fragment(frags_.leader(u));
    meter_.set_bits(bits_of(GhsMsgType::kAnnounce));
    const auto receivers = topo_.neighbors_within(u, radius_);
    charge_announce(u, receivers.size(),
                    receivers.empty() ? 0.0 : receivers.back().w);
    for (const graph::Neighbor& nb : receivers) {
      if (!fault_->crashed(nb.id)) cache_[nb.id][u] = frags_.leader(u);
    }
    meter_.clear_bits();
  }

  void announce_all() {
    for (NodeId u = 0; u < topo_.node_count(); ++u) announce(u);
    flush_batch();
    tick(1);
  }

  /// Local MOE of node u: cheapest incident edge leaving the fragment, found
  /// by cache lookup (modified) or TEST probing (classic). Probing charges
  /// 2 messages per probe and permanently rejects intra-fragment edges.
  ///
  /// Fault-free cached mode consults the fragment-leader array directly: a
  /// complete, current cache entry for v is by definition v's leader (every
  /// id change re-announces before the next scan), so the lookup answers —
  /// and the messages charged (none) — are identical to a materialised
  /// cache without storing Θ(n·deg) state. The answer is the lightest
  /// neighbour in another fragment (lightest_outside), remembered across
  /// phases.
  ///
  /// Fault mode: a cached id EQUAL to our own is trusted even if stale
  /// (between repairs fragments only merge, and repairs re-announce, so the
  /// containment argument applies — docs/ROBUSTNESS.md). A missing or
  /// differing entry is only a hint and is confirmed with a reliable TEST
  /// exchange before the edge may become the MOE; an exchange that gives up
  /// leaves the edge undecided and the scan inconclusive. Neighbors the
  /// failure detector knows are permanently dead are skipped outright.
  [[nodiscard]] MoeScan local_moe(NodeId u, std::size_t& probes,
                                  TxBatch& probe_wave) {
    MoeScan scan;
    if (opts_.neighbor_cache && !faulty_) {
      const NodeId v = lightest_outside(u);
      if (v != kNone) scan.best = {topo_.distance(u, v), u, v};
      return scan;
    }
    for (const graph::Neighbor& nb : topo_.neighbors_within(u, radius_)) {
      if (opts_.neighbor_cache) {
        const auto it = cache_[u].find(nb.id);
        if (it != cache_[u].end() && it->second == frags_.leader(u)) continue;
        if (fault_->crashed_forever(nb.id)) continue;
        ++probes;
        const bool test_ok =
            charge_wave(probe_wave, u, nb.id, GhsMsgType::kTest);  // TEST
        const bool reply_ok =
            test_ok && charge_wave(probe_wave, nb.id, u,
                                   frags_.leader(nb.id) == frags_.leader(u)
                                       ? GhsMsgType::kReject
                                       : GhsMsgType::kAccept);  // id reply
        if (!reply_ok) {
          scan.conclusive = false;  // undecided edge: nothing past it counts
          break;
        }
        // TEST replies carry both fragment ids: refresh both caches.
        cache_[u][nb.id] = frags_.leader(nb.id);
        cache_[nb.id][u] = frags_.leader(u);
        if (frags_.leader(nb.id) == frags_.leader(u)) continue;
        scan.best = {nb.w, u, nb.id};
        break;
      }
      // Classic probing: skip branch (tree) and rejected edges, TEST the rest.
      if (frags_.edge_in_tree(u, nb.id) || rejected_[u].count(nb.id) > 0)
        continue;
      if (faulty_ && fault_->crashed_forever(nb.id)) continue;
      const bool test_ok =
          charge_wave(probe_wave, u, nb.id, GhsMsgType::kTest);  // TEST
      const bool reply_ok =
          test_ok && charge_wave(probe_wave, nb.id, u,
                                 frags_.leader(nb.id) == frags_.leader(u)
                                     ? GhsMsgType::kReject
                                     : GhsMsgType::kAccept);  // ACCEPT/REJECT
      ++probes;
      if (faulty_ && !reply_ok) {
        scan.conclusive = false;
        break;
      }
      if (frags_.leader(nb.id) == frags_.leader(u)) {
        // Rejection is per undirected edge: both endpoints skip it forever.
        rejected_[u].insert(nb.id);
        rejected_[nb.id].insert(u);
        continue;
      }
      scan.best = {nb.w, u, nb.id};
      break;
    }
    return scan;
  }

  /// u's lightest neighbour, by (weight, id), outside u's fragment at
  /// radius_, or kNone (fault-free cached flavour). Remembered per node:
  /// fault-free fragments only merge, so u's set of outside neighbours only
  /// shrinks. The remembered minimum of a superset stays the minimum while
  /// it is still outside, and an empty set stays empty; only a neighbour
  /// that joined u's fragment forces a new sweep.
  NodeId lightest_outside(NodeId u) {
    NodeId& memo = lightest_out_[u];
    const NodeId own = frags_.leader(u);
    if (memo == kNone || (memo != kUnset && frags_.leader(memo) != own))
      return memo;
    const auto nb = topo_.lightest_within(
        u, radius_, [&](NodeId v) { return frags_.leader(v) != own; });
    memo = nb ? nb->id : kNone;
    return memo;
  }

  /// Phase-boundary crash repair (docs/ROBUSTNESS.md): drop tree edges
  /// incident to nodes that went down since the last repair, split their
  /// fragments back into consistent pieces with deterministically
  /// re-elected leaders (the surviving old leader where possible, else the
  /// minimum live member id), and let recovered nodes rejoin as singletons
  /// with wiped caches.
  void repair_crashes() {
    if (!fault_->enabled()) return;
    const std::size_t n = topo_.node_count();
    bool any_down_new = false;
    std::vector<NodeId> recovered;
    for (NodeId u = 0; u < n; ++u) {
      const bool down = fault_->crashed(u);
      if (down && !was_crashed_[u]) any_down_new = true;
      if (!down && was_crashed_[u]) recovered.push_back(u);
      was_crashed_[u] = down;
    }
    if (!any_down_new && recovered.empty()) return;

    std::vector<NodeId> reannounce;
    if (any_down_new) {
      // Tree surgery + leader re-election is shared protocol bookkeeping.
      reannounce = frags_.repair(was_crashed_);
      // Fragment membership changed: finished flags and probe rejections
      // may no longer hold, and a dead giant loses its passivity.
      finished_.clear();
      for (auto& r : rejected_) r.clear();
      for (auto it = passive_.begin(); it != passive_.end();) {
        if (was_crashed_[*it]) {
          it = passive_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (NodeId u : recovered) {
      // A rebooted node knows it rebooted: wipe its stale cache and
      // re-introduce itself (it is its own singleton fragment).
      if (!cache_.empty()) cache_[u].clear();
      reannounce.push_back(u);
    }
    if (opts_.neighbor_cache && !reannounce.empty()) {
      std::sort(reannounce.begin(), reannounce.end());
      reannounce.erase(std::unique(reannounce.begin(), reannounce.end()),
                       reannounce.end());
      for (NodeId u : reannounce) announce_repair(u);
      flush_batch();
      tick(1);
    }
  }

  /// BFS one fragment's tree into `view` (level-synchronous, which equals
  /// queue order) and record parents in the flat array. A tree needs no
  /// visited set: from u, every tree neighbor except parent_[u] is an
  /// undiscovered child.
  void build_view(NodeId leader, FlatView& view) {
    view.order.clear();
    view.max_depth = 0;
    parent_[leader] = kNone;
    view.order.push_back(leader);
    const auto& adj = frags_.tree_adjacency();
    std::size_t level_begin = 0;
    while (level_begin < view.order.size()) {
      const std::size_t level_end = view.order.size();
      for (std::size_t i = level_begin; i < level_end; ++i) {
        const NodeId u = view.order[i];
        for (const NodeId v : adj[u]) {
          if (v == parent_[u]) continue;
          parent_[v] = u;
          view.order.push_back(v);
        }
      }
      if (view.order.size() > level_end) ++view.max_depth;
      level_begin = level_end;
    }
  }

  /// Execute one phase. Returns false when the run is complete (every
  /// fragment finished, passive, or — under faults — permanently dead).
  bool run_phase() {
    if (faulty_) repair_crashes();
    if (fault_->enabled()) {
      // Publish the phase-boundary census to the chaos controller. The
      // injector keeps spans, and FragmentSet's vectors reallocate across
      // merges, so the snapshot lives in engine-owned buffers that stay
      // stable until the next publish.
      fault_->note_phase_boundary();
      chaos_leaders_ = frags_.leaders();
      chaos_tree_ = frags_.tree();
      fault_->publish_fragments(chaos_leaders_, chaos_tree_);
    }
    if (cfg_.oracle != nullptr) {
      const std::uint64_t round = meter_.totals().rounds;
      cfg_.oracle->check_fragments(round, frags_.leaders(), frags_.tree(),
                                   &meter_);
      cfg_.oracle->check_energy_deep(round, meter_);
    }

    const std::size_t n = topo_.node_count();
    // Group members by fragment leader, fragments ordered by their minimum
    // member id (first occurrence in a node-id scan): deterministic across
    // runs and across topology backends — the per-fragment charge order
    // below follows this grouping.
    leaders_.clear();
    member_slot_.assign(n, kNoSlot);
    for (NodeId u = 0; u < n; ++u) {
      const NodeId l = frags_.leader(u);
      if (member_slot_[l] == kNoSlot) {
        member_slot_[l] = static_cast<std::uint32_t>(leaders_.size());
        leaders_.push_back(l);
      }
    }
    if (members_.size() < leaders_.size()) members_.resize(leaders_.size());
    for (std::size_t i = 0; i < leaders_.size(); ++i) members_[i].clear();
    for (NodeId u = 0; u < n; ++u)
      members_[member_slot_[frags_.leader(u)]].push_back(u);

    // Active fragments select their MOEs. When logging, the phase's
    // messages group into four concurrency waves across all fragments.
    std::vector<std::pair<NodeId, Candidate>> selected;
    TxBatch initiate_wave;
    TxBatch probe_wave;
    TxBatch report_wave;
    TxBatch changeroot_wave;
    std::size_t max_depth = 0;
    std::size_t max_probes = 0;
    phase_extra_rounds_ = 0;
    // Collect the phase's active fragments first, then build all fragment
    // views in parallel when the run asks for threads: the BFS reads only
    // the tree adjacency and each task writes its own order vector plus
    // disjoint parent_ entries, so every charge below still happens in the
    // exact single-threaded order.
    std::vector<std::pair<NodeId, const std::vector<NodeId>*>> active;
    for (std::size_t i = 0; i < leaders_.size(); ++i) {
      const NodeId leader = leaders_[i];
      if (passive_.count(leader) > 0 || finished_.count(leader) > 0) continue;
      // Crashed nodes sit out as dormant singletons until they recover
      // (repair guarantees multi-node fragments start each phase all-alive).
      if (faulty_ && fault_->crashed(leader)) continue;
      active.emplace_back(leader, &members_[i]);
    }
    if (parent_.size() < n) parent_.assign(n, kNone);
    std::vector<FlatView> views(active.size());
    support::parallel_for(
        active.size(),
        [&](std::size_t i) { build_view(active[i].first, views[i]); },
        cfg_.threads > 1 ? cfg_.threads : 1);
    for (std::size_t ai = 0; ai < active.size(); ++ai) {
      const NodeId leader = active[ai].first;
      const std::vector<NodeId>& nodes = *active[ai].second;
      const FlatView& view = views[ai];
      EMST_ASSERT_MSG(view.order.size() == nodes.size(),
                      "fragment tree must span exactly the fragment members");
      max_depth = std::max(max_depth, view.max_depth);

      // INITIATE flood: one unicast per tree edge, leader to leaves. In
      // fault mode, track which members the flood actually reached — a node
      // that never heard INITIATE neither probes nor reports, and the
      // fragment must not commit to an MOE chosen from partial information.
      bool intact = true;
      std::unordered_set<NodeId> reached;
      if (faulty_) reached.insert(leader);
      for (NodeId v : view.order) {
        const NodeId p = parent_[v];
        if (p == kNone) continue;
        if (!faulty_) {
          charge_wave(initiate_wave, p, v, GhsMsgType::kInitiate);
          continue;
        }
        if (reached.count(p) == 0) {
          intact = false;  // parent has nothing to forward: no transmission
          continue;
        }
        if (charge_wave(initiate_wave, p, v, GhsMsgType::kInitiate)) {
          reached.insert(v);
        } else {
          intact = false;
        }
      }

      // Local MOEs + REPORT convergecast (one unicast per tree edge).
      Candidate best;
      bool conclusive = true;
      std::size_t probes = 0;
      for (NodeId v : view.order) {
        if (faulty_ && reached.count(v) == 0) continue;
        const MoeScan scan = local_moe(v, probes, probe_wave);
        if (!scan.conclusive) conclusive = false;
        if (proto::FragmentSet::candidate_less(scan.best, best))
          best = scan.best;
        if (parent_[v] != kNone) {
          if (!charge_wave(report_wave, v, parent_[v], GhsMsgType::kReport)) {
            intact = false;
          }
        }
      }
      max_probes = std::max(max_probes, probes);
      // Commit only with complete information: intact waves and conclusive
      // scans guarantee `best` is the fragment's true MOE, which is what
      // keeps the selected-edge graph cycle-free (mutual picks aside).
      if (faulty_ && (!intact || !conclusive)) continue;
      if (!best.valid()) {
        finished_.insert(leader);  // fragment spans its whole component
        continue;
      }
      // CHANGE-ROOT down the tree path leader→owner, then CONNECT over MOE.
      // The chain is sequential: a lost hop means no CONNECT this phase and
      // the fragment simply retries next phase.
      NodeId hop = best.from;
      std::vector<NodeId> path;
      while (hop != kNone) {
        path.push_back(hop);
        hop = parent_[hop];
      }
      bool chain_ok = true;
      for (std::size_t i = path.size(); i-- > 1;) {
        if (!charge_wave(changeroot_wave, path[i], path[i - 1],
                         GhsMsgType::kChangeRoot)) {
          chain_ok = false;
          break;
        }
      }
      if (chain_ok) {
        chain_ok = charge_wave(changeroot_wave, best.from, best.to,
                               GhsMsgType::kConnect);  // CONNECT
      }
      if (chain_ok) selected.emplace_back(leader, best);
    }
    if (opts_.transmission_log != nullptr) {
      for (TxBatch* wave :
           {&initiate_wave, &probe_wave, &report_wave, &changeroot_wave}) {
        if (!wave->empty()) opts_.transmission_log->push_back(std::move(*wave));
      }
    }
    // Synchronous-time estimate for this phase: initiate flood + report
    // convergecast (depth each), the probe sequence, change-root + connect,
    // plus whatever the ARQ sessions spent waiting on timeouts.
    tick(2 * max_depth + 2 * max_probes + 2 + phase_extra_rounds_);
    phase_extra_rounds_ = 0;

    if (!selected.empty()) {
      merge(selected);
      return true;
    }
    if (!faulty_) return false;
    // No fragment committed an MOE. The run is over only when nothing is
    // left to do; otherwise this phase stalled on faults — go again.
    for (std::size_t i = 0; i < leaders_.size(); ++i) {
      const NodeId leader = leaders_[i];
      if (passive_.count(leader) > 0 || finished_.count(leader) > 0) continue;
      bool dormant = true;
      for (NodeId u : members_[i]) {
        if (!fault_->crashed_forever(u)) {
          dormant = false;
          break;
        }
      }
      if (!dormant) return true;
    }
    return false;
  }

  /// Borůvka contraction of the selected MOEs (shared bookkeeping in
  /// proto::FragmentSet, with the paper's passive-id retention), followed by
  /// the modified-GHS announcements of every relabeled node.
  void merge(std::vector<std::pair<NodeId, Candidate>>& selected) {
    // FragmentSet::merge wants the commitments sorted ascending by leader.
    std::sort(selected.begin(), selected.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::vector<NodeId> changed =
        frags_.merge(selected, passive_, opts_.retain_passive_id);
    if (opts_.neighbor_cache) {
      for (NodeId u : changed) announce(u);
      flush_batch();
      if (!changed.empty()) tick(1);
    }
  }

  const Topo& topo_;
  const sim::RunConfig& cfg_;  ///< read for `arq`, `oracle`, `threads`
  SyncGhsOptions opts_;
  double radius_;
  sim::EnergyMeter& meter_;   ///< the caller's meter every charge lands on
  sim::FaultInjector* fault_; ///< the caller's fault session
  sim::ArqLink link_;         ///< ARQ simulator over fault_
  bool faulty_;               ///< any fault/ARQ machinery active

  proto::FragmentSet frags_;  // fragment identity + forest bookkeeping
  proto::WireContext wire_ctx_;  // field widths for this topology
  /// Worst-case encoded size per message type — what the choreographed
  /// charges bill (the actor driver bills exact per-message sizes).
  std::array<std::uint32_t, static_cast<std::size_t>(GhsMsgType::kTypeCount)>
      type_bits_{};
  /// neighbor -> frag, fault-mode modified GHS only (empty otherwise): a
  /// fault-free cache is always complete and current, so the leader array
  /// substitutes for it exactly.
  std::vector<std::unordered_map<NodeId, NodeId>> cache_;
  /// Per-node rejected neighbors (probe mode only, empty otherwise).
  std::vector<std::unordered_set<NodeId>> rejected_;
  // Fault-free cached flavour only (empty otherwise), kUnset until first
  // use: each node's receiver count and farthest receiver at radius_ (kNone
  // if it has none), and its remembered lightest outside neighbour.
  std::vector<std::uint32_t> reach_count_;
  std::vector<NodeId> farthest_;
  std::vector<NodeId> lightest_out_;
  std::vector<bool> was_crashed_;  // crash state at the last repair
  // Chaos census snapshots: stable storage behind the spans the fault
  // injector hands the controller (refreshed at every phase boundary).
  std::vector<NodeId> chaos_leaders_;
  std::vector<graph::Edge> chaos_tree_;
  std::unordered_set<NodeId> passive_;
  std::unordered_set<NodeId> finished_;
  std::size_t max_phases_ = 0;
  std::uint64_t phase_extra_rounds_ = 0;  // ARQ timeout rounds this phase
  TxBatch batch_;  // open announcement batch (when logging)
  // Per-phase scratch, reused across phases so the grouping pass allocates
  // nothing in steady state.
  std::vector<NodeId> leaders_;             ///< fragments, by min member id
  std::vector<std::uint32_t> member_slot_;  ///< leader id -> leaders_ slot
  std::vector<std::vector<NodeId>> members_;  ///< parallel to leaders_
  std::vector<NodeId> parent_;  ///< flat BFS parents (active fragments)
};

}  // namespace

template <typename Topo>
SyncGhsStage run_sync_ghs_stage(const Topo& topo, const sim::RunConfig& cfg,
                                const SyncGhsOptions& options,
                                const FragmentForest* seed,
                                sim::EnergyMeter& meter,
                                sim::FaultInjector& faults) {
  return SyncGhsEngine<Topo>(topo, cfg, options, seed, meter, faults).run();
}

template SyncGhsStage run_sync_ghs_stage<sim::Topology>(
    const sim::Topology&, const sim::RunConfig&, const SyncGhsOptions&,
    const FragmentForest*, sim::EnergyMeter&, sim::FaultInjector&);
template SyncGhsStage run_sync_ghs_stage<sim::ImplicitTopology>(
    const sim::ImplicitTopology&, const sim::RunConfig&, const SyncGhsOptions&,
    const FragmentForest*, sim::EnergyMeter&, sim::FaultInjector&);

}  // namespace emst::ghs
