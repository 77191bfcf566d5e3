// Classic GHS as a node actor (docs/DISTRIBUTED.md §2).
//
// The 1983 protocol's per-node handler logic — the seven message procedures,
// spontaneous wakeup and the fail-stop reset — extracted out of the driver
// into a NodeActor so the same handler code runs in two placements:
//
//  - serially, inside the driver process, against an env that tallies and
//    stages each send immediately (`sim::Network`), byte-identical to the
//    pre-actor inline driver;
//  - rank-resident, inside the forked rank that owns the receiving node,
//    against a `sim::RankActorEnv` that records each send as an effect
//    ledger record for the parent to replay.
//
// Every handler reads and writes ONLY the state of the receiving node (plus
// the read-only topology); that receiver-locality is the entire correctness
// argument for rank residency, so keep it when editing: a handler that
// peeks at another node's state would silently diverge across placements.
//
// Each node also carries a dispatch version (`version(u)`), raised by every
// handler invocation that does not end in a deferral, by wakeups and by
// epoch restarts. The three deferral branches (CONNECT at a level not below
// the receiver's over a Basic edge, TEST from a higher level, REPORT over
// the core edge while in Find) read only the receiver's state and write
// nothing, so a parked delivery whose receiver still has the version it was
// parked at would defer again: both retry loops re-park it in its FIFO slot
// without calling the handler (docs/PERF.md, "Classic GHS dispatch").
//
// Handlers address edges by slot. Every send goes over a link of the CSR,
// so an in-process delivery names its slot at the receiver
// (sim::Delivery::port), checked against the sender on each use. Rank
// frames carry no port: those deliveries alone search the receiver's row.
// ANNOUNCE and CHANGE_ROOT act on no edge and resolve no slot.
//
// A node's whole context is one 64-byte line (NodeCtx): its edge states
// live in one array shared by all nodes, and ghs-cached's announcement
// maps in a side table that only that mode allocates. Procedure test
// resumes from a per-node cursor instead of slot 0: within an epoch an edge
// only ever leaves Basic, so no Basic edge lies below the last one tested.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <variant>
#include <vector>

#include "emst/ghs/classic.hpp"
#include "emst/ghs/common.hpp"
#include "emst/proto/dist_wire.hpp"
#include "emst/proto/wire.hpp"
#include "emst/sim/fault.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/topology.hpp"
#include "emst/support/assert.hpp"

namespace emst::ghs {

class ClassicGhsActor {
 public:
  using Msg = proto::GhsMsg;
  using Delivery = sim::Delivery<Msg>;
  using NodeState = proto::GhsNodeState;
  enum class EdgeState : std::uint8_t { kBasic, kBranch, kRejected };
  /// Edges are addressed by "slot": the position in the node's
  /// radius-filtered neighbor span (ascending weight), which makes
  /// "minimum-weight basic edge" the first Basic slot.
  using Slot = std::uint32_t;

  static constexpr Slot kNoSlot = graph::kNoSlot;
  static constexpr EdgeIndex kNoFragName = static_cast<EdgeIndex>(-1);

  /// Per-node protocol state, one cache line.
  struct alignas(64) NodeCtx {
    std::uint32_t version = 0;  // dispatch version, see version()
    NodeState state = NodeState::kSleeping;
    bool halted = false;
    std::uint32_t level = 0;
    EdgeIndex frag = kNoFragName;        // undefined until first Initiate
    std::uint32_t first_state = 0;       // slot 0's entry in edge_states_
    std::uint32_t degree = 0;            // slot count
    Slot basic_from = 0;                 // no Basic slot below it (cursor)
    Slot best_slot = kNoSlot;            // candidate MOE (local slot)
    Slot test_slot = kNoSlot;            // slot currently under TEST
    Slot in_branch = kNoSlot;            // slot toward the core
    std::uint32_t find_count = 0;
    std::uint64_t best_edge = kInfEdge;  // its global edge index
  };
  static_assert(sizeof(NodeCtx) == 64);

  ClassicGhsActor(const sim::Topology& topo, double radius, MoeStrategy moe)
      : topo_(&topo), radius_(radius), moe_(moe), nodes_(topo.node_count()) {
    std::size_t total = 0;
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      NodeCtx& n = nodes_[u];
      n.first_state = static_cast<std::uint32_t>(total);
      n.degree = static_cast<std::uint32_t>(
          topo.neighbors_within(u, radius).size());
      total += n.degree;
    }
    EMST_ASSERT_MSG(total <= 0xFFFFFFFFu,
                    "classic GHS: edge states exceed 32-bit offsets");
    edge_states_.assign(total, EdgeState::kBasic);
    if (moe_ == MoeStrategy::kCachedConfirm) cache_.resize(topo.node_count());
  }

  /// Per-round hook of the NodeActor shape. Classic GHS keeps no per-round
  /// bookkeeping; invoked once per round on every replica either way.
  void on_round_start(std::uint64_t /*round*/) {}

  /// Dispatch one delivery to its receiver's handler (paper procedure
  /// numbering in the comments below). The env decides the placement.
  template <typename Env>
  void on_message(const Delivery& d, Env& env) {
    ++invocations_;
    const NodeId u = d.to;
    // A sleeping node is awakened by any incoming message (all nodes wake in
    // round 0 here, but keep the guard for partial-start configurations).
    if (nodes_[u].state == NodeState::kSleeping) wakeup_locked(u, env);
    const bool parked = std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, proto::GhsAnnounce>) {
            cache_[u][d.from] = msg.frag;
          } else if constexpr (std::is_same_v<T, proto::GhsChangeRoot>) {
            change_root(u, env);
          } else {
            // The six kinds that act on the edge they arrived on.
            const Slot j = slot_of(d);
            if constexpr (std::is_same_v<T, proto::GhsConnect>) {
              return on_connect(u, j, msg, d, env);
            } else if constexpr (std::is_same_v<T, proto::GhsInitiate>) {
              on_initiate(u, j, msg, env);
            } else if constexpr (std::is_same_v<T, proto::GhsTest>) {
              return on_test(u, j, msg, d, env);
            } else if constexpr (std::is_same_v<T, proto::GhsAccept>) {
              on_accept(u, j, env);
            } else if constexpr (std::is_same_v<T, proto::GhsReject>) {
              on_reject(u, j, env);
            } else {
              static_assert(std::is_same_v<T, proto::GhsReport>);
              return on_report(u, j, msg, d, env);
            }
          }
          return false;  // only CONNECT, TEST and REPORT can park
        },
        d.msg);
    if (!parked) ++nodes_[u].version;
  }

  /// Start loading what on_message(d) will read first: the receiver's
  /// context and, for a delivery with a port, its row entry there. Reads
  /// receiver state only; the serial round loop calls it a few deliveries
  /// ahead of dispatch.
  void prefetch(const Delivery& d) const {
    __builtin_prefetch(&nodes_[d.to]);
    if (d.port != graph::kNoSlot)
      __builtin_prefetch(topo_->neighbors(d.to).data() + d.port);
  }

  /// (2) Spontaneous wakeup: mark the minimum-weight edge Branch and send
  /// CONNECT(0) over it. Isolated nodes halt immediately. After a fail-stop
  /// restart, edges to dead neighbors are pre-Rejected, so the minimum edge
  /// is the cheapest surviving one (slot 0 in the fault-free run).
  template <typename Env>
  void wakeup(NodeId u, Env& env) {
    ++invocations_;
    wakeup_locked(u, env);
  }

  /// Fail-stop reset (docs/ROBUSTNESS.md): discard all protocol state, the
  /// test cursor and announcement cache included, and pre-Reject edges to
  /// permanently dead neighbors — the modeled neighbor-timeout failure
  /// detector. The wakeups that start the next epoch are the driver's (a
  /// choreographed step, not a handler).
  void restart(const sim::FaultInjector& faults) {
    for (NodeId u = 0; u < node_count(); ++u) {
      NodeCtx& n = nodes_[u];
      NodeCtx fresh;
      fresh.version = n.version + 1;
      fresh.first_state = n.first_state;
      fresh.degree = n.degree;
      n = fresh;
      const auto nbs = neighbors(u);
      const auto states = writable_states(u);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        states[i] = faults.crashed_forever(nbs[i].id) ? EdgeState::kRejected
                                                      : EdgeState::kBasic;
      }
      if (!cache_.empty()) cache_[u].clear();
    }
  }

  /// Rank-side execution of one choreographed step (actor_rank.hpp). The
  /// parent ships the step kind; each rank invokes its local share in the
  /// same order the parent's expected-order walk assumes — ascending node id
  /// for the whole-network wakeup, the wire list's own order for partial
  /// starts — and emits one ACTOR_STEPPED group per invocation. Crash skips
  /// use the rank's mirrored fault clock; the parent asserts the resulting
  /// group sequence matches its own (authoritative) computation node for
  /// node.
  template <typename LocalPred, typename Env, typename Emit>
  void step(std::uint8_t kind, std::uint64_t /*param*/,
            std::span<const NodeId> list, const sim::FaultInjector& faults,
            bool faulty, LocalPred&& is_local, Env& env, Emit&& emit) {
    switch (kind) {
      case proto::kDistStepWakeupAll:
        for (NodeId u = 0; u < node_count(); ++u) {
          if (!is_local(u)) continue;
          if (faulty && faults.crashed(u)) continue;
          env.begin_entry();
          wakeup(u, env);
          emit(u, std::uint8_t{0});
        }
        break;
      case proto::kDistStepWakeupList:
        for (const NodeId u : list) {
          if (!is_local(u)) continue;
          if (faulty && faults.crashed(u)) continue;
          env.begin_entry();
          wakeup(u, env);
          emit(u, std::uint8_t{0});
        }
        break;
      case proto::kDistStepRestart:
        restart(faults);
        break;
      default:
        EMST_ASSERT_MSG(false, "classic GHS actor: unknown step kind");
    }
  }

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(nodes_.size());
  }
  [[nodiscard]] const NodeCtx& node(NodeId u) const { return nodes_[u]; }
  /// u's edge states, one per slot.
  [[nodiscard]] std::span<const EdgeState> edge_states(NodeId u) const {
    return {edge_states_.data() + nodes_[u].first_state, nodes_[u].degree};
  }
  /// Handler executions (deliveries, retries that reached a handler, and
  /// wakeups); a retry re-parked on an unchanged version is not one.
  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }
  /// Dispatch version of u (see the header comment): a parked delivery
  /// records it, and a retry finding it unchanged skips the handler. 4 B per
  /// node; wrapping is harmless unless exactly 2^32 state changes fall
  /// between a park and its retry.
  [[nodiscard]] std::uint32_t version(NodeId u) const {
    return nodes_[u].version;
  }

  /// Node-state codec for the harvest collective. The announcement cache is
  /// deliberately not shipped: it is a pure message-saving optimization that
  /// only influences *future* sends, and harvest runs strictly after
  /// quiescence — nothing downstream reads it.
  void encode_node(NodeId u, proto::BitWriter& w) const {
    const NodeCtx& n = nodes_[u];
    w.write(static_cast<std::uint64_t>(n.state), 2);
    w.write(n.level, 32);
    w.write(static_cast<std::uint32_t>(n.frag), 32);
    for (const EdgeState e : edge_states(u))
      w.write(static_cast<std::uint64_t>(e), 2);
    w.write(n.best_slot, 32);
    w.write(n.best_edge, 64);
    w.write(n.test_slot, 32);
    w.write(n.in_branch, 32);
    w.write(n.find_count, 32);
    w.write(n.halted ? 1 : 0, 1);
  }

  void decode_node(NodeId u, proto::BitReader& r) {
    NodeCtx& n = nodes_[u];
    n.state = static_cast<NodeState>(r.read(2));
    n.level = static_cast<std::uint32_t>(r.read(32));
    n.frag = static_cast<EdgeIndex>(r.read(32));
    for (EdgeState& e : writable_states(u))
      e = static_cast<EdgeState>(r.read(2));
    n.basic_from = 0;  // always a valid lower bound
    n.best_slot = static_cast<Slot>(r.read(32));
    n.best_edge = r.read(64);
    n.test_slot = static_cast<Slot>(r.read(32));
    n.in_branch = static_cast<Slot>(r.read(32));
    n.find_count = static_cast<std::uint32_t>(r.read(32));
    n.halted = r.read(1) != 0;
  }

 private:
  [[nodiscard]] std::span<EdgeState> writable_states(NodeId u) {
    return {edge_states_.data() + nodes_[u].first_state, nodes_[u].degree};
  }

  /// u's radius-filtered neighbour span: the prefix of neighbors(u) whose
  /// length the context already holds, so no radius search.
  [[nodiscard]] std::span<const graph::Neighbor> neighbors(NodeId u) const {
    return topo_->neighbors(u).first(nodes_[u].degree);
  }
  /// The receiver's slot of the edge `d` arrived on: its port, checked to
  /// name the sender, or for a delivery without one (a rank frame) a search
  /// of the receiver's row.
  [[nodiscard]] Slot slot_of(const Delivery& d) const {
    if (d.port == graph::kNoSlot)
      return static_cast<Slot>(neighbor_slot(*topo_, d.to, d.from, d.distance));
    const auto nbs = neighbors(d.to);
    EMST_ASSERT_MSG(d.port < nbs.size() && nbs[d.port].id == d.from,
                    "classic GHS: delivery port does not name its sender");
    return d.port;
  }

  /// Unicast `msg` over slot `slot` of `u`: the single chokepoint where a
  /// handler action becomes an env effect (charged reach = the slot weight;
  /// meter context = wire kind + sender's current fragment).
  template <typename Env>
  void send(NodeId u, Slot slot, Msg msg, Env& env) {
    const GhsMsgType type = proto::type_of(msg);
    const graph::Neighbor& link = neighbors(u)[slot];
    env.unicast(u, link, to_msg_kind(type), static_cast<std::uint8_t>(type),
                static_cast<std::uint32_t>(nodes_[u].frag), std::move(msg));
  }

  template <typename Env>
  void wakeup_locked(NodeId u, Env& env) {
    NodeCtx& n = nodes_[u];
    if (n.state != NodeState::kSleeping) return;
    ++n.version;
    n.state = NodeState::kFound;
    n.level = 0;
    n.find_count = 0;
    const auto states = writable_states(u);
    const auto first =
        std::find(states.begin(), states.end(), EdgeState::kBasic);
    if (first == states.end()) {
      n.halted = true;  // isolated node (or all neighbors dead)
      return;
    }
    *first = EdgeState::kBranch;
    send(u, static_cast<Slot>(first - states.begin()), proto::GhsConnect{0},
         env);
  }

  /// (3) Receiving CONNECT(L) on edge j. Returns true iff it parked `d`;
  /// the deferral test reads u's state only and writes nothing.
  template <typename Env>
  bool on_connect(NodeId u, Slot j, const proto::GhsConnect& m,
                  const Delivery& d, Env& env) {
    NodeCtx& n = nodes_[u];
    EdgeState& edge = writable_states(u)[j];
    if (m.level < n.level) {
      // Absorb the lower-level fragment.
      edge = EdgeState::kBranch;
      send(u, j, proto::GhsInitiate{n.level, n.frag, n.state}, env);
      if (n.state == NodeState::kFind) ++n.find_count;
    } else if (edge == EdgeState::kBasic) {
      env.defer(d);  // equal level but j not yet known to be the mutual MOE
      return true;
    } else {
      // Merge: j is the core of the new fragment, named by its edge index.
      const EdgeIndex core = neighbors(u)[j].edge_index;
      send(u, j, proto::GhsInitiate{n.level + 1, core, NodeState::kFind}, env);
    }
    return false;
  }

  /// (4) Receiving INITIATE(L, F, S) on edge j.
  template <typename Env>
  void on_initiate(NodeId u, Slot j, const proto::GhsInitiate& m, Env& env) {
    NodeCtx& n = nodes_[u];
    n.level = m.level;
    const bool renamed = n.frag != m.frag;
    n.frag = m.frag;
    // §V-A modification: a node whose fragment name changed announces it to
    // its whole neighbourhood with one local broadcast.
    if (moe_ == MoeStrategy::kCachedConfirm && renamed) {
      env.broadcast(u, radius_, sim::MsgKind::kAnnounce,
                    static_cast<std::uint8_t>(GhsMsgType::kAnnounce),
                    static_cast<std::uint32_t>(m.frag),
                    Msg{proto::GhsAnnounce{m.frag}});
    }
    n.state = m.state;
    n.in_branch = j;
    n.best_slot = kNoSlot;
    n.best_edge = kInfEdge;
    const auto states = edge_states(u);
    for (Slot i = 0; i < n.degree; ++i) {
      if (i == j || states[i] != EdgeState::kBranch) continue;
      send(u, i, proto::GhsInitiate{m.level, m.frag, m.state}, env);
      if (m.state == NodeState::kFind) ++n.find_count;
    }
    if (m.state == NodeState::kFind) test(u, env);
  }

  /// (5) Procedure test: probe the minimum-weight basic edge, scanning from
  /// the cursor. In cached mode, edges whose neighbour announced the node's
  /// own fragment name are rejected for free; the first remaining candidate
  /// is still confirmed with one TEST (the cache can be stale in the other
  /// direction only).
  template <typename Env>
  void test(NodeId u, Env& env) {
    NodeCtx& n = nodes_[u];
    const auto states = writable_states(u);
    for (Slot i = n.basic_from; i < n.degree; ++i) {
      if (states[i] != EdgeState::kBasic) continue;
      if (moe_ == MoeStrategy::kCachedConfirm) {
        const auto& cache = cache_[u];
        const auto hit = cache.find(neighbors(u)[i].id);
        if (hit != cache.end() && hit->second == n.frag) {
          states[i] = EdgeState::kRejected;  // proven internal, free
          continue;
        }
      }
      n.basic_from = i;
      n.test_slot = i;
      send(u, i, proto::GhsTest{n.level, n.frag}, env);
      return;
    }
    n.basic_from = n.degree;
    n.test_slot = kNoSlot;
    report(u, env);
  }

  /// (6) Receiving TEST(L, F) on edge j. Returns true iff it parked `d`.
  template <typename Env>
  bool on_test(NodeId u, Slot j, const proto::GhsTest& m, const Delivery& d,
               Env& env) {
    NodeCtx& n = nodes_[u];
    if (m.level > n.level) {
      env.defer(d);
      return true;
    }
    if (m.frag != n.frag) {
      send(u, j, proto::GhsAccept{}, env);
      return false;
    }
    // Same fragment: internal edge.
    EdgeState& edge = writable_states(u)[j];
    if (edge == EdgeState::kBasic) edge = EdgeState::kRejected;
    if (n.test_slot != j) {
      send(u, j, proto::GhsReject{}, env);
    } else {
      test(u, env);  // the edge we were testing is internal; try the next
    }
    return false;
  }

  /// (7) Receiving ACCEPT on edge j.
  template <typename Env>
  void on_accept(NodeId u, Slot j, Env& env) {
    NodeCtx& n = nodes_[u];
    n.test_slot = kNoSlot;
    const std::uint64_t idx = neighbors(u)[j].edge_index;
    if (idx < n.best_edge) {
      n.best_edge = idx;
      n.best_slot = j;
    }
    report(u, env);
  }

  /// (8) Receiving REJECT on edge j.
  template <typename Env>
  void on_reject(NodeId u, Slot j, Env& env) {
    EdgeState& edge = writable_states(u)[j];
    if (edge == EdgeState::kBasic) edge = EdgeState::kRejected;
    test(u, env);
  }

  /// (9) Procedure report.
  template <typename Env>
  void report(NodeId u, Env& env) {
    NodeCtx& n = nodes_[u];
    if (n.find_count == 0 && n.test_slot == kNoSlot) {
      n.state = NodeState::kFound;
      EMST_ASSERT(n.in_branch != kNoSlot);
      send(u, n.in_branch, proto::GhsReport{n.best_edge}, env);
    }
  }

  /// (10) Receiving REPORT(w) on edge j. Returns true iff it parked `d`.
  template <typename Env>
  bool on_report(NodeId u, Slot j, const proto::GhsReport& m,
                 const Delivery& d, Env& env) {
    NodeCtx& n = nodes_[u];
    if (j != n.in_branch) {
      EMST_ASSERT(n.find_count > 0);
      --n.find_count;
      if (m.best < n.best_edge) {
        n.best_edge = m.best;
        n.best_slot = j;
      }
      report(u, env);
      return false;
    }
    // Report arriving over the core edge.
    if (n.state == NodeState::kFind) {
      env.defer(d);
      return true;
    }
    if (m.best > n.best_edge) {
      change_root(u, env);
    } else if (m.best == kInfEdge && n.best_edge == kInfEdge) {
      n.halted = true;  // the whole fragment has no outgoing edge: done
    }
    // else: the other core node owns the fragment MOE and will change root.
    return false;
  }

  /// (11) Procedure change-root.
  template <typename Env>
  void change_root(NodeId u, Env& env) {
    NodeCtx& n = nodes_[u];
    EMST_ASSERT(n.best_slot != kNoSlot);
    EdgeState& edge = writable_states(u)[n.best_slot];
    if (edge == EdgeState::kBranch) {
      send(u, n.best_slot, proto::GhsChangeRoot{}, env);
    } else {
      send(u, n.best_slot, proto::GhsConnect{n.level}, env);
      edge = EdgeState::kBranch;
    }
  }

  const sim::Topology* topo_;
  double radius_;
  MoeStrategy moe_;
  std::vector<NodeCtx> nodes_;
  std::vector<EdgeState> edge_states_;  // all nodes', see first_state
  /// kCachedConfirm only, per node: the last fragment name each neighbor
  /// announced. Names are globally unique over time (a core edge can core
  /// only once), so a hit equal to the node's own name proves the edge
  /// internal forever.
  std::vector<std::unordered_map<NodeId, EdgeIndex>> cache_;
  std::uint64_t invocations_ = 0;
};

}  // namespace emst::ghs
