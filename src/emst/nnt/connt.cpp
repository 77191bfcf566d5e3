#include "emst/nnt/connt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
#include <variant>

#include "emst/nnt/connt_actor.hpp"
#include "emst/proto/connt_wire.hpp"
#include "emst/sim/distributed_network.hpp"
#include "emst/sim/engine_factory.hpp"
#include "emst/sim/implicit_topology.hpp"
#include "emst/sim/network.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/parallel.hpp"

namespace emst::nnt {
namespace {

/// Serial actor env: handler actions become immediate engine calls. The
/// telemetry context (meter kind) is phase-scoped by the choreography, so
/// the per-effect kind/fragment parameters are ignored here — exactly the
/// pre-actor inline behavior.
template <typename Engine>
struct SerialConntEnv {
  Engine* net;
  CoNntResult* result;
  std::size_t round = 0;
  graph::NodeId cur = graph::kNoNode;  ///< node of the running connect step

  void unicast(graph::NodeId u, graph::NodeId to, sim::MsgKind,
               std::uint8_t, std::uint32_t, double, proto::ConntMsg msg) {
    net->unicast(u, to, std::move(msg));
  }
  void broadcast(graph::NodeId u, double radius, sim::MsgKind, std::uint8_t,
                 std::uint32_t, proto::ConntMsg msg) {
    net->broadcast(u, radius, std::move(msg));
  }
  void defer(const sim::Delivery<proto::ConntMsg>&) {}
  void note(std::uint32_t a, std::uint64_t b) {
    const double dist = std::bit_cast<double>(b);
    result->parent[cur] = a;
    result->tree.push_back(graph::Edge{cur, a, dist}.canonical());
    result->max_connect_distance =
        std::max(result->max_connect_distance, dist);
    result->phases = std::max(result->phases, round);
  }
};

/// Replay sink for the rank-resident execution: the engine stages and
/// charges effects itself; the driver folds step flags into its
/// unresolved/searching model and notes into the tree bookkeeping.
struct DistConntSink {
  CoNntResult* result;
  std::vector<graph::NodeId>* out = nullptr;  ///< searching / still_unresolved
  std::size_t round = 0;
  bool probe_mode = false;

  void on_send(std::uint8_t, double) {}
  void on_step_node(graph::NodeId u, std::uint8_t flag) {
    if (probe_mode) {
      if (flag == kConntStepSearching) out->push_back(u);
    } else {
      if (flag == kConntStepUnresolved) out->push_back(u);
    }
  }
  void on_note(graph::NodeId u, std::uint32_t a, std::uint64_t b) {
    const double dist = std::bit_cast<double>(b);
    result->parent[u] = a;
    result->tree.push_back(graph::Edge{u, a, dist}.canonical());
    result->max_connect_distance =
        std::max(result->max_connect_distance, dist);
    result->phases = std::max(result->phases, round);
  }
};

template <typename Engine>
CoNntResult run_connt_actor_impl(const sim::Topology& topo,
                                 const sim::RunConfig& cfg,
                                 const CoNntOptions& options) {
  const std::size_t n = topo.node_count();
  EMST_ASSERT(n >= 1);
  const double n_est =
      std::max(2.0, static_cast<double>(n) * options.n_estimate_factor);
  const auto points = std::span<const geometry::Point2>(topo.points());

  // Fail-stop only (docs/ROBUSTNESS.md): crashes are survived by epoch
  // restart; message loss would need an ARQ layer Co-NNT doesn't have.
  const bool faulty = cfg.faults.enabled();
  EMST_ASSERT_MSG(!cfg.arq.enabled, "Co-NNT has no ARQ layer");
  EMST_ASSERT_MSG(cfg.faults.loss == 0.0 && !cfg.faults.use_gilbert,
                  "Co-NNT accepts crash-only (fail-stop) fault models; "
                  "message loss needs ARQ recovery (sync GHS / EOPT)");
  Engine net(sim::make_engine<Engine>(topo, cfg.pathloss,
                                      /*unbounded_broadcast=*/true,
                                      /*delays=*/{}, cfg.faults,
                                      cfg.telemetry, cfg.ranks));
  if (cfg.oracle != nullptr) net.attach_oracle(cfg.oracle);
  // Codec hook: requests and replies carry grid-quantized coordinates, the
  // connect message a bare tag; widths come from the topology size.
  net.wire_format().ctx = proto::WireContext::for_topology(n, topo.edge_count());
  const proto::WireContext& ctx = net.wire_format().ctx;
  cfg.configure(net.meter(), n);

  CoNntResult result;
  ConntActor actor(points, options.scheme, n_est, ctx);
  std::uint64_t rank_invocations = 0;

  // Fail-stop epochs: an epoch excludes the nodes crashed when it starts and
  // runs the full doubling protocol among the rest. If the crashed set ever
  // deviates from that exclusion snapshot mid-epoch (a participant died, or
  // an excluded node came back and replied), replies may have been lost and
  // the epoch's tree is untrusted — discard it and restart among the current
  // survivors. A clean epoch saw every participant alive throughout and
  // every dead node silent throughout, so it computes exactly the NNT of the
  // survivor sub-topology. Permanent windows bound the epoch count.
  std::vector<char> excluded(n, 0);
  bool dirty = false;
  auto snapshot_excluded = [&] {
    for (graph::NodeId u = 0; u < n; ++u) {
      excluded[u] = net.faults().crashed(u) ? 1 : 0;
    }
  };
  auto scan_dirty = [&] {
    if (!faulty || dirty) return;
    for (graph::NodeId u = 0; u < n; ++u) {
      if ((net.faults().crashed(u) ? 1 : 0) != excluded[u]) {
        dirty = true;
        return;
      }
    }
  };
  const std::size_t max_epochs = faulty ? n + 2 : 1;

  if constexpr (sim::DistributedEngine<Engine>) {
    // Rank-resident execution (docs/DISTRIBUTED.md §2): handlers and step
    // sweeps run inside the ranks; the choreography below mirrors the
    // serial branch phase for phase, with each sweep shipped as an
    // ACTOR_STEP collective and each delivery round as an effect-ledger
    // exchange. The fault clock, the phase boundaries and the dirty scan
    // stay parent-side — they own determinism.
    net.install_actor(actor, faulty);
    DistConntSink sink{&result};
    while (true) {
      result.parent.assign(n, graph::kNoNode);
      result.tree.clear();
      result.phases = 0;
      result.max_connect_distance = 0.0;
      dirty = false;
      if (faulty) snapshot_excluded();
      net.actor_step(proto::kDistStepConntReset, 0, {}, {}, sink);
      std::vector<graph::NodeId> unresolved;
      unresolved.reserve(n);
      for (graph::NodeId u = 0; u < n; ++u) {
        if (!faulty || excluded[u] == 0) unresolved.push_back(u);
      }

      std::vector<graph::NodeId> searching;
      std::vector<graph::NodeId> still_unresolved;
      for (std::size_t round = 1; !unresolved.empty(); ++round) {
        if (faulty) net.faults().note_phase_boundary();
        net.meter().set_kind(sim::MsgKind::kRequest);
        searching.clear();
        sink.probe_mode = true;
        sink.out = &searching;
        sink.round = round;
        net.actor_step(proto::kDistStepConntProbe, round, {}, unresolved,
                       sink);
        net.meter().set_kind(sim::MsgKind::kReply);
        (void)net.actor_collect_round(sink);  // REQUESTs delivered in-rank
        scan_dirty();
        (void)net.actor_collect_round(sink);  // REPLYs delivered in-rank
        scan_dirty();
        net.meter().set_kind(sim::MsgKind::kConnection);
        still_unresolved.clear();
        sink.probe_mode = false;
        sink.out = &still_unresolved;
        net.actor_step(proto::kDistStepConntConnect, 0, {}, searching, sink);
        (void)net.actor_collect_round(sink);  // drain CONNECT deliveries
        scan_dirty();
        unresolved = still_unresolved;
      }

      if (!faulty || !dirty) break;
      EMST_ASSERT_MSG(++result.epochs <= max_epochs,
                      "Co-NNT exceeded fail-stop epoch cap");
    }
    rank_invocations = net.actor_harvest(actor);
  } else {
    SerialConntEnv<Engine> env{&net, &result};
    while (true) {
      result.parent.assign(n, graph::kNoNode);
      result.tree.clear();
      result.phases = 0;
      result.max_connect_distance = 0.0;
      dirty = false;
      if (faulty) snapshot_excluded();
      actor.reset(net.faults(), faulty);
      std::vector<graph::NodeId> unresolved;
      unresolved.reserve(n);
      for (graph::NodeId u = 0; u < n; ++u) {
        if (!faulty || excluded[u] == 0) unresolved.push_back(u);
      }

      for (std::size_t round = 1; !unresolved.empty(); ++round) {
        // Each doubling round is a protocol phase boundary for the chaos
        // controller (CrashWaveAtPhaseBoundary keys on this).
        if (faulty) net.faults().note_phase_boundary();
        // Phase step 1: every still-searching node broadcasts a REQUEST.
        net.meter().set_kind(sim::MsgKind::kRequest);
        env.round = round;
        std::vector<graph::NodeId> searching;
        for (const graph::NodeId u : unresolved) {
          if (actor.step_probe(u, round, env) == kConntStepSearching)
            searching.push_back(u);
        }
        // Phase step 2: higher-ranked hearers REPLY.
        net.meter().set_kind(sim::MsgKind::kReply);
        auto requests = net.collect_round();
        scan_dirty();
        for (const auto& d : requests) actor.on_message(d, env);
        // Phase step 3: requesters CONNECT to their nearest replier.
        auto replies = net.collect_round();
        scan_dirty();
        for (const auto& d : replies) actor.on_message(d, env);
        net.meter().set_kind(sim::MsgKind::kConnection);
        std::vector<graph::NodeId> still_unresolved;
        for (const graph::NodeId u : searching) {
          env.cur = u;
          if (actor.step_connect(u, env) != kConntStepConnected)
            still_unresolved.push_back(u);
        }
        // CONNECT deliveries reach the handler too, as in the ranks.
        auto connects = net.collect_round();
        scan_dirty();
        for (const auto& d : connects) actor.on_message(d, env);
        unresolved = std::move(still_unresolved);
      }

      if (!faulty || !dirty) break;
      EMST_ASSERT_MSG(++result.epochs <= max_epochs,
                      "Co-NNT exceeded fail-stop epoch cap");
    }
  }

  graph::sort_edges(result.tree);
  result.fill_from(net.meter());
  result.fill_from(net.faults());
  result.fragments = n - result.tree.size();
  result.handler_invocations = actor.invocations();
  result.rank_handler_invocations = rank_invocations;
  return result;
}

}  // namespace

template <typename Topo>
CoNntResult run_connt(const Topo& topo, const sim::RunConfig& cfg,
                      const CoNntOptions& options) {
  // Fault-aware runs need real in-flight messages (suppression, crash drops,
  // the epoch-restart loop) — delegate to the actor execution, which models
  // them; the choreographed fast path below stays the fault-free harness.
  // Rank processes only exist in the actor execution (the choreographed
  // fast path has no network engine to distribute). The engines run on the
  // CSR, which enumerates the same neighbourhoods as the grid.
  if (runs_actor(cfg)) {
    if constexpr (std::is_same_v<Topo, sim::ImplicitTopology>) {
      return run_connt_actor(sim::Topology(topo.points(), topo.max_radius()),
                             cfg, options);
    } else {
      return run_connt_actor(topo, cfg, options);
    }
  }
  const std::size_t n = topo.node_count();
  EMST_ASSERT(n >= 1);
  const double n_est = std::max(2.0, static_cast<double>(n) * options.n_estimate_factor);
  const auto points = std::span<const geometry::Point2>(topo.points());

  CoNntResult result;
  result.parent.assign(n, graph::kNoNode);
  EMST_ASSERT_MSG(!cfg.arq.enabled,
                  "Co-NNT has no loss recovery; ARQ unsupported");
  sim::EnergyMeter meter(cfg.pathloss);
  cfg.configure(meter, n);
  // All three Co-NNT message types have fixed widths for a given topology,
  // so the choreographed charges bill exactly what the actor codec bills.
  const proto::WireContext wire_ctx =
      proto::WireContext::for_topology(n, topo.edge_count());
  const std::uint32_t request_bits =
      proto::ConntRequest{}.encoded_bits(wire_ctx);
  const std::uint32_t reply_bits = proto::ConntReply{}.encoded_bits(wire_ctx);
  const std::uint32_t connect_bits =
      proto::ConntConnect{}.encoded_bits(wire_ctx);

  std::vector<graph::NodeId> unresolved(n);
  for (graph::NodeId u = 0; u < n; ++u) unresolved[u] = u;

  // Per-round probe precompute, parallelized when cfg.threads > 1. The
  // geometry query (nodes_within) dominates the round; each slot is written
  // by exactly one task, so the serial charge loop below sees identical
  // inputs for every thread count.
  struct Probe {
    bool active = false;
    double radius = 0.0;
    std::vector<sim::NodeId> heard;
  };
  std::vector<Probe> probes;
  const std::size_t workers = cfg.threads > 1 ? cfg.threads : 1;

  for (std::size_t round = 1; !unresolved.empty(); ++round) {
    probes.assign(unresolved.size(), Probe{});
    support::parallel_for(
        unresolved.size(),
        [&](std::size_t i) {
          const graph::NodeId u = unresolved[i];
          // m = ⌈lg(n·L_u²)⌉ probes suffice to cover the potential region.
          const ProbePlan plan(options.scheme, points[u], n_est);
          if (round > plan.max_rounds) return;  // top-ranked node: terminate
          Probe& probe = probes[i];
          probe.active = true;
          probe.radius = ProbePlan::radius(round, n_est);
          probe.heard = topo.nodes_within(u, probe.radius);
        },
        workers);
    std::vector<graph::NodeId> still_unresolved;
    for (std::size_t i = 0; i < unresolved.size(); ++i) {
      const graph::NodeId u = unresolved[i];
      const Probe& probe = probes[i];
      if (!probe.active) continue;
      // REQUEST: one local broadcast carrying u's coordinates.
      meter.set_kind(sim::MsgKind::kRequest);
      meter.set_bits(request_bits);
      meter.charge_broadcast(u, probe.radius, probe.heard.size());
      // REPLIES from every higher-ranked node in range.
      meter.set_kind(sim::MsgKind::kReply);
      meter.set_bits(reply_bits);
      graph::NodeId best = graph::kNoNode;
      double best_d = 0.0;
      for (const sim::NodeId v : probe.heard) {
        if (!rank_less(options.scheme, points, u, v)) continue;
        const double d = topo.distance(v, u);
        meter.charge_unicast(v, u, d);
        if (best == graph::kNoNode || d < best_d || (d == best_d && v < best)) {
          best = v;
          best_d = d;
        }
      }
      if (best == graph::kNoNode) {
        still_unresolved.push_back(u);
        continue;
      }
      // CONNECTION to the nearest replier.
      meter.set_kind(sim::MsgKind::kConnection);
      meter.set_bits(connect_bits);
      meter.charge_unicast(u, best, best_d);
      result.parent[u] = best;
      result.tree.push_back(graph::Edge{u, best, best_d}.canonical());
      result.max_connect_distance = std::max(result.max_connect_distance, best_d);
      result.phases = std::max(result.phases, round);
    }
    // One request round, one reply round, one connection round.
    meter.clear_bits();
    meter.tick_rounds(3);
    unresolved = std::move(still_unresolved);
  }

  graph::sort_edges(result.tree);
  result.fill_from(meter);
  result.fragments = n - result.tree.size();
  return result;
}

CoNntResult run_connt_actor(const sim::Topology& topo,
                            const sim::RunConfig& cfg,
                            const CoNntOptions& options) {
  if (cfg.ranks > 0) {
    return run_connt_actor_impl<sim::DistributedNetwork<proto::ConntMsg>>(
        topo, cfg, options);
  }
  return run_connt_actor_impl<sim::Network<proto::ConntMsg>>(topo, cfg,
                                                             options);
}

template CoNntResult run_connt<sim::Topology>(const sim::Topology&,
                                              const sim::RunConfig&,
                                              const CoNntOptions&);
template CoNntResult run_connt<sim::ImplicitTopology>(
    const sim::ImplicitTopology&, const sim::RunConfig&, const CoNntOptions&);

}  // namespace emst::nnt
