#include "emst/ghs/classic.hpp"

#include <algorithm>

#include "emst/ghs/classic_actor.hpp"
#include "emst/sim/distributed_network.hpp"
#include "emst/sim/engine_factory.hpp"
#include "emst/sim/network.hpp"
#include "emst/support/assert.hpp"

namespace emst::ghs {
namespace {

using GhsMsg = proto::GhsMsg;

// ---------------------------------------------------------------------------
// The protocol driver, templated on the network engine so the calendar-
// queue `sim::Network` and the rank-process `sim::DistributedNetwork`
// execute the EXACT same protocol code — any divergence (accounting,
// telemetry stream, tree) is an engine bug, not a driver difference. It
// runs on the CSR only: fragment names are the CSR's canonical edge
// indices, and deliveries arrive on the receiver's row slot.
//
// Since the node-actor refactor the handlers themselves live in
// `ClassicGhsActor` (classic_actor.hpp); this driver owns the choreography
// — wakeups, the round loop, the deferred queue, fail-stop epochs — and the
// env that turns handler actions into engine calls. On the distributed
// engine the actor is installed INSIDE the rank processes and the driver
// replays the effect ledger instead (run_distributed below); every other
// engine dispatches the same actor serially.
// ---------------------------------------------------------------------------

template <typename Engine>
class ClassicGhsRun {
 public:
  ClassicGhsRun(const sim::Topology& topo, const sim::RunConfig& cfg,
                const ClassicGhsOptions& options)
      : topo_(topo),
        radius_(options.radius > 0.0 ? options.radius : topo.max_radius()),
        moe_(options.moe),
        net_(sim::make_engine<Engine>(topo, cfg.pathloss,
                                      /*unbounded_broadcast=*/false,
                                      options.delays, cfg.faults,
                                      cfg.telemetry, cfg.ranks)),
        actor_(topo, radius_, moe_),
        starters_(options.spontaneous_wakeups),
        faulty_(cfg.faults.enabled()) {
    EMST_ASSERT(radius_ <= topo.max_radius() * (1.0 + 1e-12));
    // Fail-stop only: the 1983 protocol has no loss recovery, so lossy
    // channels stay unsupported — crashes are survived by epoch restart
    // (docs/ROBUSTNESS.md), losses would need the sync drivers' ARQ.
    EMST_ASSERT_MSG(!cfg.arq.enabled, "classic GHS has no ARQ layer");
    EMST_ASSERT_MSG(cfg.faults.loss == 0.0 && !cfg.faults.use_gilbert,
                    "classic GHS accepts crash-only (fail-stop) fault models; "
                    "message loss needs ARQ recovery (sync GHS / EOPT)");
    if (cfg.oracle != nullptr) net_.attach_oracle(cfg.oracle);
    // Safety cap on simulated rounds: defends against a driver bug turning
    // into an infinite loop; generous, GHS needs O(n log n) rounds at most.
    max_rounds_ = (50 * topo.node_count() + 1000) *
                  (options.delays.max_extra_delay + 1);
    // Codec hook: the engine measures every message through the proto wire
    // format once the field widths are derived from the topology.
    net_.wire_format().ctx = proto::WireContext::for_topology(
        topo.node_count(), topo.edge_count());
    cfg.configure(net_.meter(), topo.node_count());
  }

  sim::RunResult run() {
    if constexpr (sim::DistributedEngine<Engine>) {
      return run_distributed();
    } else {
      return run_serial();
    }
  }

 private:
  using Actor = ClassicGhsActor;
  using Delivery = sim::Delivery<GhsMsg>;

  /// The serial env: handler actions become immediate engine calls, in the
  /// exact statement order of the pre-actor inline driver (telemetry
  /// context, then the charge+enqueue) — byte-identical meter and telemetry
  /// streams. The wire tag matters only to the distributed effect ledger.
  struct SerialEnv {
    ClassicGhsRun* run;

    void unicast(NodeId u, const graph::Neighbor& link, sim::MsgKind kind,
                 std::uint8_t /*dtag*/, std::uint32_t fragment, GhsMsg msg) {
      run->net_.meter().set_kind(kind);
      run->net_.meter().set_fragment(fragment);
      run->net_.unicast(u, link, std::move(msg));
    }
    void broadcast(NodeId u, double radius, sim::MsgKind kind,
                   std::uint8_t /*dtag*/, std::uint32_t fragment, GhsMsg msg) {
      run->net_.meter().set_kind(kind);
      run->net_.meter().set_fragment(fragment);
      run->net_.broadcast(u, radius, std::move(msg));
    }
    void defer(const Delivery& d) {
      run->deferred_.push_back({d, run->actor_.version(d.to)});
    }
    void note(std::uint32_t, std::uint64_t) {}
  };

  /// The replay sink for the distributed path: the engine stages, charges
  /// and contextualizes each effect itself, so the driver observes nothing.
  struct ReplaySink {
    void on_send(std::uint8_t, double) {}
    void on_step_node(NodeId, std::uint8_t) {}
    void on_note(NodeId, std::uint32_t, std::uint64_t) {}
  };

  sim::RunResult run_serial() {
    SerialEnv env{this};
    if (starters_.empty()) {
      for (NodeId u = 0; u < topo_.node_count(); ++u) {
        if (!faulty_ || !net_.faults().crashed(u)) actor_.wakeup(u, env);
      }
    } else {
      for (NodeId u : starters_) {
        if (!faulty_ || !net_.faults().crashed(u)) actor_.wakeup(u, env);
      }
    }
    // Fail-stop epochs (docs/ROBUSTNESS.md): run the 1983 protocol to
    // quiescence; if any crash touched the epoch (a send suppressed, a
    // delivery dropped on a dead receiver, or the crashed set changed), the
    // epoch's state is untrusted — discard it, mark edges to dead neighbors
    // Rejected (the modeled neighbor-timeout failure detector), and restart
    // among the survivors. The final epoch is crash-free by construction, so
    // the original GHS proof applies verbatim to the survivor subgraph.
    // Permanent windows bound the epoch count; the cap is a bug guard.
    std::vector<char> dead = dead_snapshot();
    std::uint64_t activity = crash_activity();
    const std::size_t max_epochs = faulty_ ? topo_.node_count() + 2 : 1;
    while (true) {
      run_epoch(env);
      if (!faulty_) break;
      std::vector<char> now_dead = dead_snapshot();
      const std::uint64_t now_activity = crash_activity();
      if (now_dead == dead && now_activity == activity) break;  // clean epoch
      dead = std::move(now_dead);
      activity = now_activity;
      EMST_ASSERT_MSG(++epochs_ <= max_epochs,
                      "classic GHS exceeded fail-stop epoch cap");
      restart_epoch(env);
    }
    return harvest();
  }

  /// Rank-resident execution (docs/DISTRIBUTED.md §2): the actor is
  /// installed inside the rank processes, the choreography below mirrors
  /// run_serial step for step, and every handler runs in the rank that owns
  /// its receiver — the parent replays the effect ledgers. The fail-stop
  /// epoch logic is unchanged because the crash clock, the suppressed /
  /// dropped counters and the stall detection all stay parent-side.
  sim::RunResult run_distributed() {
    ReplaySink sink;
    net_.install_actor(actor_, faulty_);
    wakeup_step(sink);
    std::vector<char> dead = dead_snapshot();
    std::uint64_t activity = crash_activity();
    const std::size_t max_epochs = faulty_ ? topo_.node_count() + 2 : 1;
    while (true) {
      run_epoch_distributed(sink);
      if (!faulty_) break;
      std::vector<char> now_dead = dead_snapshot();
      const std::uint64_t now_activity = crash_activity();
      if (now_dead == dead && now_activity == activity) break;  // clean epoch
      dead = std::move(now_dead);
      activity = now_activity;
      EMST_ASSERT_MSG(++epochs_ <= max_epochs,
                      "classic GHS exceeded fail-stop epoch cap");
      rounds_ = 0;  // the round cap is per epoch; epochs_ bounds the restarts
      net_.actor_step(proto::kDistStepRestart, 0, {}, {}, sink);
      restart_wakeups_.clear();
      for (NodeId u = 0; u < topo_.node_count(); ++u) {
        if (!net_.faults().crashed(u)) restart_wakeups_.push_back(u);
      }
      net_.actor_step(proto::kDistStepWakeupAll, 0, {}, restart_wakeups_,
                      sink);
    }
    rank_invocations_ = net_.actor_harvest(actor_);
    return harvest();
  }

  /// Initial wakeups as a choreographed step: the parent computes the
  /// global invocation order (its fault clock owns the crash skips), the
  /// ranks invoke the same set locally via the mirrored clock.
  void wakeup_step(ReplaySink& sink) {
    restart_wakeups_.clear();
    if (starters_.empty()) {
      for (NodeId u = 0; u < topo_.node_count(); ++u) {
        if (!faulty_ || !net_.faults().crashed(u))
          restart_wakeups_.push_back(u);
      }
      net_.actor_step(proto::kDistStepWakeupAll, 0, {}, restart_wakeups_,
                      sink);
    } else {
      for (NodeId u : starters_) {
        if (!faulty_ || !net_.faults().crashed(u))
          restart_wakeups_.push_back(u);
      }
      net_.actor_step(proto::kDistStepWakeupList, 0, starters_,
                      restart_wakeups_, sink);
    }
  }

  /// Drive the protocol until quiescence: nothing in flight and nothing
  /// deferred — or, under faults, a stall: nothing in flight and a round of
  /// redispatching the deferred queue changed nothing (every enabler died
  /// with a crashed node; fault-free GHS always keeps an enabling message in
  /// flight, so the stall exit can only fire in fault mode).
  void run_epoch(SerialEnv& env) {
    while (net_.pending() || !deferred_.empty()) {
      EMST_ASSERT_MSG(++rounds_ <= max_rounds_,
                      "classic GHS exceeded round cap");
      auto batch = net_.collect_round();
      actor_.on_round_start(rounds_);
      // Retry messages deferred in earlier rounds first (they are older). A
      // receiver still at the version its message was parked at would defer
      // it again, so the message keeps its FIFO slot without a handler call.
      std::swap(retry_, deferred_);
      deferred_.clear();
      for (Parked& p : retry_) {
        if (actor_.version(p.d.to) == p.version) {
          deferred_.push_back(std::move(p));
        } else {
          actor_.on_message(p.d, env);
        }
      }
      // Dispatch touches the receiver's context and row at random; loading
      // them a few deliveries ahead hides most of that latency.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (i + kPrefetchAhead < batch.size())
          actor_.prefetch(batch[i + kPrefetchAhead]);
        actor_.on_message(batch[i], env);
      }
      if (faulty_ && batch.empty() && !net_.pending() &&
          deferred_.size() == retry_.size()) {
        return;  // stalled: only re-deferred messages remain
      }
    }
  }

  /// Same loop against the rank-resident actor: the engine executes the
  /// retries and the round batch inside the ranks and replays the ledgers;
  /// the stall condition maps one-to-one onto the round info.
  void run_epoch_distributed(ReplaySink& sink) {
    while (net_.pending() || net_.actor_deferred_size() > 0) {
      EMST_ASSERT_MSG(++rounds_ <= max_rounds_,
                      "classic GHS exceeded round cap");
      const sim::ActorRoundInfo info = net_.actor_collect_round(sink);
      if (faulty_ && info.batch == 0 && !net_.pending() &&
          info.deferred_after == info.retried) {
        return;  // stalled: only re-deferred messages remain
      }
    }
  }

  /// Per-node crashed bitmap at the current fault clock.
  [[nodiscard]] std::vector<char> dead_snapshot() {
    std::vector<char> dead(topo_.node_count(), 0);
    if (!faulty_) return dead;
    for (NodeId u = 0; u < topo_.node_count(); ++u) {
      dead[u] = net_.faults().crashed(u) ? 1 : 0;
    }
    return dead;
  }

  /// Crash-related event count so far — any change across an epoch means a
  /// dead node absorbed or suppressed protocol traffic during it.
  [[nodiscard]] std::uint64_t crash_activity() const {
    const sim::FaultStats& s = net_.fault_stats();
    return s.dropped_crashed + s.suppressed;
  }

  /// Serial fail-stop restart: reset the actor (which pre-Rejects edges to
  /// permanently dead neighbors — the failure detector) and wake the
  /// survivors. Temporarily crashed nodes keep their edges Basic; probing
  /// them drops messages, which flags the epoch unclean and forces another
  /// restart after they recover.
  void restart_epoch(SerialEnv& env) {
    deferred_.clear();
    rounds_ = 0;  // the round cap is per epoch; epochs_ bounds the restarts
    actor_.restart(net_.faults());
    for (NodeId u = 0; u < topo_.node_count(); ++u) {
      if (!net_.faults().crashed(u)) actor_.wakeup(u, env);
    }
  }

  [[nodiscard]] std::span<const graph::Neighbor> neighbors(NodeId u) const {
    return topo_.neighbors_within(u, radius_);
  }

  sim::RunResult harvest() {
    using EdgeState = typename Actor::EdgeState;
    sim::RunResult result;
    std::uint32_t max_level = 0;
    // Collect Branch slots as endpoint edges: a tree edge appears once per
    // endpoint that marked it Branch (usually both), so sort canonically
    // and drop adjacent endpoint duplicates — no global edge list needed.
    for (NodeId u = 0; u < topo_.node_count(); ++u) {
      max_level = std::max(max_level, actor_.node(u).level);
      const auto nbs = neighbors(u);
      const auto states = actor_.edge_states(u);
      for (std::size_t i = 0; i < states.size(); ++i) {
        if (states[i] != EdgeState::kBranch) continue;
        result.tree.push_back(graph::Edge{u, nbs[i].id, nbs[i].w}.canonical());
      }
    }
    graph::sort_edges(result.tree);
    result.tree.erase(
        std::unique(result.tree.begin(), result.tree.end(),
                    [](const graph::Edge& a, const graph::Edge& b) {
                      return a.u == b.u && a.v == b.v;
                    }),
        result.tree.end());
    result.fill_from(net_.meter());
    result.fill_from(net_.faults());
    result.phases = max_level;
    result.fragments = topo_.node_count() - result.tree.size();
    result.epochs = epochs_;
    result.handler_invocations = actor_.invocations();
    result.rank_handler_invocations = rank_invocations_;
    return result;
  }

  /// How many deliveries ahead of dispatch run_epoch prefetches.
  static constexpr std::size_t kPrefetchAhead = 4;

  /// A delivery a handler deferred, with its receiver's dispatch version at
  /// that moment (ClassicGhsActor::version).
  struct Parked {
    Delivery d;
    std::uint32_t version;
  };

  const sim::Topology& topo_;
  double radius_;
  MoeStrategy moe_;
  Engine net_;
  Actor actor_;
  std::vector<NodeId> starters_;
  bool faulty_ = false;
  std::vector<Parked> deferred_;
  std::vector<Parked> retry_;  // this round's retries (reused buffer)
  std::vector<NodeId> restart_wakeups_;
  std::size_t max_rounds_ = 0;
  std::size_t rounds_ = 0;
  std::size_t epochs_ = 1;
  std::uint64_t rank_invocations_ = 0;
};

}  // namespace

sim::RunResult run_classic_ghs(const sim::Topology& topo,
                               const sim::RunConfig& cfg,
                               const ClassicGhsOptions& options) {
  if (cfg.ranks > 0) {
    return ClassicGhsRun<sim::DistributedNetwork<GhsMsg>>(topo, cfg, options)
        .run();
  }
  return ClassicGhsRun<sim::Network<GhsMsg>>(topo, cfg, options).run();
}

}  // namespace emst::ghs
