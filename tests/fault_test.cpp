// Tests for the fault-injection layer (docs/ROBUSTNESS.md): drop/crash
// semantics in both network engines, the fault injector itself, and the
// fault-aware GHS/EOPT — including the headline robustness claims: the
// layer is zero-cost when disabled, EOPT stays exact under 10% Bernoulli
// loss with ARQ, and crashes mid-run leave the surviving forest consistent.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/graph/union_find.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/fault.hpp"
#include "emst/sim/network.hpp"
#include "emst/support/rng.hpp"
#include "reference_network.hpp"

namespace emst {
namespace {

sim::Topology square_topology(double max_radius = 1.5) {
  return sim::Topology({{0, 0}, {1, 0}, {0, 1}, {1, 1}}, max_radius);
}

sim::Topology random_topology(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::Topology(geometry::uniform_points(n, rng),
                       rgg::connectivity_radius(n));
}

constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();

// ---------------------------------------------------------------- injector

TEST(FaultInjector, DisabledByDefault) {
  sim::FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.crashed(0));
  EXPECT_FALSE(injector.drop(0, 1));
  sim::FaultModel zero;  // loss 0, no gilbert, no crashes
  EXPECT_FALSE(zero.enabled());
  EXPECT_FALSE(sim::FaultInjector(zero).enabled());
}

TEST(FaultInjector, CrashWindowsFollowTheClock) {
  sim::FaultModel model;
  model.crashes = {{2, 5, 9}, {2, 20, kForever}, {4, 0, 3}};
  sim::FaultInjector injector(model);
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(injector.crashed(4));    // round 0 ∈ [0, 3)
  EXPECT_FALSE(injector.crashed(2));   // round 0 < 5
  injector.advance_to(5);
  EXPECT_TRUE(injector.crashed(2));
  EXPECT_FALSE(injector.crashed_forever(2));  // the live window is finite
  injector.advance_to(9);
  EXPECT_FALSE(injector.crashed(2));   // recovered: 9 ∉ [5, 9)
  EXPECT_FALSE(injector.crashed(4));
  injector.advance_rounds(11);         // round 20
  EXPECT_TRUE(injector.crashed(2));
  EXPECT_TRUE(injector.crashed_forever(2));
  EXPECT_FALSE(injector.crashed(1000));  // out-of-range node never crashes
}

TEST(FaultInjector, OverlappingAndZeroLengthWindowsUnion) {
  // Overlapping windows for one node union; `until == from` never fires.
  sim::FaultModel model;
  model.crashes = {{2, 3, 7}, {2, 5, 10}, {2, 12, 12}, {3, 0, 0}};
  sim::FaultInjector injector(model);
  EXPECT_TRUE(injector.enabled());
  EXPECT_FALSE(injector.crashed_at(2, 2));
  for (std::uint64_t r = 3; r < 10; ++r) {
    EXPECT_TRUE(injector.crashed_at(2, r)) << "round " << r;  // the union
  }
  EXPECT_FALSE(injector.crashed_at(2, 10));
  EXPECT_FALSE(injector.crashed_at(2, 12));  // zero-length: never down
  EXPECT_FALSE(injector.crashed_forever(2));
  EXPECT_FALSE(injector.crashed_at(3, 0));   // zero-length at round 0 too
}

TEST(FaultInjector, BernoulliLossMatchesTheRate) {
  sim::FaultModel model;
  model.loss = 0.2;
  model.seed = 99;
  sim::FaultInjector injector(model);
  int lost = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    if (injector.drop(0, 1)) ++lost;
  }
  const double rate = static_cast<double>(lost) / draws;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(FaultInjector, GilbertElliottProducesBursts) {
  // loss only in the Bad state: every loss run is a visit to Bad, so mean
  // run length ≈ 1/P(Bad→Good) per transmission — clearly above i.i.d.
  sim::FaultModel model;
  model.use_gilbert = true;
  model.ge_good_to_bad = 0.05;
  model.ge_bad_to_good = 0.3;
  model.ge_loss_good = 0.0;
  model.ge_loss_bad = 1.0;
  model.seed = 7;
  sim::FaultInjector injector(model);
  int losses = 0;
  int runs = 0;
  bool in_run = false;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    const bool lost = injector.drop(1, 2);  // one link: one chain
    losses += lost ? 1 : 0;
    if (lost && !in_run) ++runs;
    in_run = lost;
  }
  ASSERT_GT(losses, 100);
  ASSERT_GT(runs, 0);
  const double mean_run = static_cast<double>(losses) / runs;
  EXPECT_GT(mean_run, 1.5);  // bursty, not i.i.d. (mean would be ~1.05)
}

TEST(FaultInjector, PerLinkChainsAreIndependent) {
  sim::FaultModel model;
  model.use_gilbert = true;
  model.ge_loss_good = 0.0;
  model.ge_loss_bad = 1.0;
  model.seed = 11;
  sim::FaultInjector injector(model);
  // Drive many links; at least the map of chain states must grow per link,
  // and draws must stay deterministic for a fixed seed.
  int lost = 0;
  for (std::uint32_t v = 1; v <= 64; ++v) {
    for (int i = 0; i < 50; ++i) lost += injector.drop(0, v) ? 1 : 0;
  }
  sim::FaultInjector replay(model);
  int lost2 = 0;
  for (std::uint32_t v = 1; v <= 64; ++v) {
    for (int i = 0; i < 50; ++i) lost2 += replay.drop(0, v) ? 1 : 0;
  }
  EXPECT_EQ(lost, lost2);
}

// ------------------------------------------------------- network semantics

TEST(Network, LostMessagesStillChargeTheSender) {
  const sim::Topology topo = square_topology();
  sim::FaultModel faults;
  faults.loss = 1.0;  // every message dies on the channel
  sim::Network<int> net(topo, {}, false, {}, faults);
  net.unicast(0, 1, 7);
  EXPECT_DOUBLE_EQ(net.meter().totals().energy, 1.0);  // d=1, α=2: charged
  EXPECT_EQ(net.meter().totals().unicasts, 1u);
  EXPECT_TRUE(net.pending());
  EXPECT_TRUE(net.collect_round().empty());  // ... but never delivered
  EXPECT_FALSE(net.pending());               // and the queue drained
  EXPECT_EQ(net.fault_stats().lost, 1u);
}

TEST(Network, CrashedSenderIsSuppressedForFree) {
  const sim::Topology topo = square_topology();
  sim::FaultModel faults;
  faults.crashes = {{0, 0, kForever}};
  sim::Network<int> net(topo, {}, false, {}, faults);
  net.unicast(0, 1, 7);
  net.broadcast(0, 1.0, 8);
  EXPECT_DOUBLE_EQ(net.meter().totals().energy, 0.0);  // dead radio: free
  EXPECT_EQ(net.meter().totals().messages(), 0u);
  EXPECT_FALSE(net.pending());
  EXPECT_EQ(net.fault_stats().suppressed, 2u);
  // Other nodes are unaffected.
  net.unicast(1, 0, 9);
  EXPECT_DOUBLE_EQ(net.meter().totals().energy, 1.0);
}

// Satellite regression: in-flight messages to a node that crashes must drop
// at delivery time without wedging pending() loops.
template <typename Net>
void expect_crashed_receiver_drains() {
  const sim::Topology topo = square_topology();
  sim::FaultModel faults;
  faults.crashes = {{1, 1, kForever}};  // node 1 dies at round 1 = delivery
  Net net(topo, {}, false, {}, faults);
  net.unicast(0, 1, 1);
  net.unicast(2, 1, 2);
  net.unicast(0, 3, 3);  // a live receiver, same round
  int rounds = 0;
  std::size_t delivered = 0;
  while (net.pending()) {
    ASSERT_LT(++rounds, 100) << "pending() wedged on a crashed receiver";
    delivered += net.collect_round().size();
  }
  EXPECT_EQ(delivered, 1u);  // only 0→3 arrives
  EXPECT_EQ(net.fault_stats().dropped_crashed, 2u);
  // All three senders transmitted and were charged.
  EXPECT_EQ(net.meter().totals().unicasts, 3u);
}

TEST(Network, CrashedReceiverDropsAtDeliveryWithoutWedging) {
  expect_crashed_receiver_drains<sim::Network<int>>();
}

TEST(ReferenceNetwork, CrashedReceiverDropsAtDeliveryWithoutWedging) {
  expect_crashed_receiver_drains<sim::ReferenceNetwork<int>>();
}

TEST(Network, DelayedInFlightMessagesDieWithTheirReceiver) {
  const sim::Topology topo = square_topology();
  sim::FaultModel faults;
  faults.crashes = {{1, 3, kForever}};  // dies at round 3
  sim::DelayModel delays{4, 0xd1ceULL};
  sim::Network<int> net(topo, {}, false, delays, faults);
  for (int i = 0; i < 12; ++i) net.unicast(0, 1, i);  // due rounds 1..5
  std::size_t delivered = 0;
  int rounds = 0;
  while (net.pending()) {
    ASSERT_LT(++rounds, 100);
    delivered += net.collect_round().size();
  }
  // Some arrived before the crash, the rest dropped at delivery time.
  EXPECT_EQ(delivered + net.fault_stats().dropped_crashed, 12u);
  EXPECT_GT(net.fault_stats().dropped_crashed, 0u);
}

TEST(Network, RecoveryReopensDelivery) {
  const sim::Topology topo = square_topology();
  sim::FaultModel faults;
  faults.crashes = {{1, 1, 3}};  // down for delivery rounds 1 and 2
  sim::Network<int> net(topo, {}, false, {}, faults);
  net.unicast(0, 1, 1);
  EXPECT_TRUE(net.collect_round().empty());  // round 1: dropped
  net.unicast(0, 1, 2);
  EXPECT_TRUE(net.collect_round().empty());  // round 2: dropped
  net.unicast(0, 1, 3);
  const auto round3 = net.collect_round();   // round 3: recovered
  ASSERT_EQ(round3.size(), 1u);
  EXPECT_EQ(round3[0].msg, 3);
  EXPECT_EQ(net.fault_stats().dropped_crashed, 2u);
}

// Drive one Gilbert–Elliott run where the sender is down for rounds 1–2.
// When `send_while_down`, it attempts (suppressed) transmissions during the
// outage; otherwise those sends simply don't happen. Everything else — the
// warm-up burst, the clock advance, the post-recovery traffic — is identical.
template <typename Net>
std::vector<int> ge_fates_across_crash_window(bool send_while_down,
                                              sim::FaultStats* stats_out) {
  const sim::Topology topo = square_topology();
  sim::FaultModel faults;
  faults.use_gilbert = true;
  faults.ge_good_to_bad = 0.4;  // busy chain: every draw matters
  faults.ge_bad_to_good = 0.4;
  faults.ge_loss_good = 0.0;
  faults.ge_loss_bad = 1.0;
  faults.seed = 0x6E2026;
  faults.crashes = {{0, 1, 3}};  // sender down for delivery rounds 1 and 2
  Net net(topo, {}, false, {}, faults);
  std::vector<int> delivered;
  const auto drain_round = [&] {
    for (auto& d : net.collect_round()) delivered.push_back(d.msg);
  };
  for (int m = 0; m < 8; ++m) net.unicast(0, 1, m);  // round 0: warm the chain
  drain_round();  // -> round 1: sender down
  if (send_while_down) {
    for (int m = 100; m < 105; ++m) net.unicast(0, 1, m);  // suppressed
  }
  drain_round();  // -> round 2: still down
  if (send_while_down) {
    for (int m = 200; m < 205; ++m) net.unicast(0, 1, m);  // suppressed
  }
  drain_round();  // -> round 3: recovered
  for (int m = 300; m < 330; ++m) net.unicast(0, 1, m);
  for (int r = 0; r < 10 && net.pending(); ++r) drain_round();
  EXPECT_FALSE(net.pending());
  if (stats_out != nullptr) *stats_out = net.fault_stats();
  return delivered;
}

// Satellite pin: a dead radio emits nothing, so suppressed sends must
// consume NEITHER the global fate counter NOR the per-link burst chain —
// post-recovery channel fates are bitwise those of a run where the
// suppressed sends never happened.
template <typename Net>
void expect_suppressed_sends_leave_burst_chains_untouched() {
  sim::FaultStats with{};
  sim::FaultStats without{};
  const auto a = ge_fates_across_crash_window<Net>(true, &with);
  const auto b = ge_fates_across_crash_window<Net>(false, &without);
  EXPECT_EQ(a, b);  // identical per-message delivery fates
  EXPECT_EQ(with.suppressed, 10u);
  EXPECT_EQ(without.suppressed, 0u);
  EXPECT_EQ(with.lost, without.lost);  // the chain never saw the outage
  EXPECT_GT(with.lost, 0u);            // ... and it did drop something
  EXPECT_EQ(with.dropped_crashed, 0u); // only the sender was ever down
}

TEST(Network, SuppressedSendsLeaveBurstChainsUntouched) {
  expect_suppressed_sends_leave_burst_chains_untouched<sim::Network<int>>();
}

TEST(ReferenceNetwork, SuppressedSendsLeaveBurstChainsUntouched) {
  expect_suppressed_sends_leave_burst_chains_untouched<
      sim::ReferenceNetwork<int>>();
}

// Overlapping windows must behave as their union at delivery time.
template <typename Net>
void expect_overlapping_windows_union_at_delivery() {
  const sim::Topology topo = square_topology();
  sim::FaultModel faults;
  faults.crashes = {{1, 1, 3}, {1, 2, 5}, {1, 4, 4}};  // union: down [1, 5)
  Net net(topo, {}, false, {}, faults);
  for (int r = 1; r <= 5; ++r) {
    net.unicast(0, 1, r);
    const auto out = net.collect_round();  // delivery round r
    if (r < 5) {
      EXPECT_TRUE(out.empty()) << "round " << r;
    } else {
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].msg, 5);
    }
  }
  EXPECT_EQ(net.fault_stats().dropped_crashed, 4u);
}

TEST(Network, OverlappingCrashWindowsUnionAtDelivery) {
  expect_overlapping_windows_union_at_delivery<sim::Network<int>>();
}

TEST(ReferenceNetwork, OverlappingCrashWindowsUnionAtDelivery) {
  expect_overlapping_windows_union_at_delivery<sim::ReferenceNetwork<int>>();
}

// A node crashed at round 0 is silent from birth: its sends are suppressed
// (free) starting with the very first one, and traffic to it drops.
template <typename Net>
void expect_round_zero_crash_is_silent_from_birth() {
  const sim::Topology topo = square_topology();
  sim::FaultModel faults;
  faults.crashes = {{0, 0, kForever}};
  Net net(topo, {}, false, {}, faults);
  net.unicast(0, 1, 1);        // suppressed
  net.broadcast(0, 1.0, 2);    // suppressed
  net.unicast(1, 0, 3);        // charged, drops at delivery
  net.unicast(1, 2, 4);        // live link, delivered
  const auto out = net.collect_round();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].msg, 4);
  EXPECT_EQ(net.fault_stats().suppressed, 2u);
  EXPECT_EQ(net.fault_stats().dropped_crashed, 1u);
  EXPECT_EQ(net.meter().totals().unicasts, 2u);  // only node 1's sends
  EXPECT_EQ(net.meter().totals().broadcasts, 0u);
}

TEST(Network, RoundZeroCrashIsSilentFromBirth) {
  expect_round_zero_crash_is_silent_from_birth<sim::Network<int>>();
}

TEST(ReferenceNetwork, RoundZeroCrashIsSilentFromBirth) {
  expect_round_zero_crash_is_silent_from_birth<sim::ReferenceNetwork<int>>();
}

// ----------------------------------------------------- fault-aware sync GHS

std::vector<graph::Edge> reference_msf(const sim::Topology& topo) {
  return graph::kruskal_msf(topo.node_count(), topo.graph().edges());
}

/// Structural consistency of a fragment forest: idempotent leader labels,
/// tree edges only inside fragments, and each fragment spanned by exactly
/// its own tree edges (connected, acyclic).
void expect_forest_consistent(const sim::Topology& topo,
                              const ghs::FragmentForest& forest) {
  const std::size_t n = topo.node_count();
  ASSERT_EQ(forest.leader.size(), n);
  for (sim::NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(forest.leader[forest.leader[u]], forest.leader[u])
        << "leader label not idempotent at node " << u;
  }
  graph::UnionFind dsu(n);
  for (const graph::Edge& e : forest.tree) {
    EXPECT_EQ(forest.leader[e.u], forest.leader[e.v])
        << "tree edge (" << e.u << "," << e.v << ") crosses fragments";
    EXPECT_TRUE(dsu.unite(e.u, e.v))
        << "cycle through (" << e.u << "," << e.v << ")";
  }
  // Same-fragment ⇒ connected by tree edges (spanning).
  for (sim::NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(dsu.find(u), dsu.find(forest.leader[u]))
        << "node " << u << " not connected to its leader";
  }
}

TEST(SyncGhsFaults, DisabledFaultModelIsByteIdenticalToPlainRun) {
  const sim::Topology topo = random_topology(300, 41);
  sim::RunConfig plain;
  sim::RunConfig with_knobs = plain;
  with_knobs.faults = sim::FaultModel{};  // loss 0, no crashes: disabled
  with_knobs.arq = sim::ArqOptions{};     // disabled
  const auto a = ghs::run_sync_ghs(topo, plain);
  const auto b = ghs::run_sync_ghs(topo, with_knobs);
  EXPECT_EQ(a.run.totals.energy, b.run.totals.energy);  // bit-identical
  EXPECT_EQ(a.run.totals.messages(), b.run.totals.messages());
  EXPECT_EQ(a.run.totals.rounds, b.run.totals.rounds);
  EXPECT_TRUE(graph::same_edge_set(a.run.tree, b.run.tree));
  EXPECT_EQ(b.run.arq.data_sent, 0u);
  EXPECT_EQ(b.run.faults.lost, 0u);
  EXPECT_FALSE(b.run.hit_phase_cap);
}

TEST(SyncGhsFaults, ArqOnCleanChannelPaysAcksOnly) {
  const sim::Topology topo = random_topology(256, 43);
  sim::RunConfig plain;
  sim::RunConfig reliable = plain;
  reliable.arq.enabled = true;
  const auto base = ghs::run_sync_ghs(topo, plain);
  const auto arq = ghs::run_sync_ghs(topo, reliable);
  // Same tree; zero loss means zero retries/give-ups, and every charged
  // unicast is exactly one DATA or its ACK. The fault-aware engine sends
  // MORE logical messages than the trusting one (cache mode confirms
  // differing cache entries with reliable TEST probes instead of acting on
  // them unverified), so the comparison to `base` is an inequality.
  EXPECT_TRUE(graph::same_edge_set(arq.run.tree, base.run.tree));
  EXPECT_EQ(arq.run.arq.retransmissions, 0u);
  EXPECT_EQ(arq.run.arq.give_ups, 0u);
  EXPECT_EQ(arq.run.arq.acks_sent, arq.run.arq.data_sent);
  EXPECT_EQ(arq.run.arq.delivered, arq.run.arq.data_sent);
  EXPECT_EQ(arq.run.totals.unicasts,
            arq.run.arq.data_sent + arq.run.arq.acks_sent);
  EXPECT_EQ(arq.run.totals.broadcasts, base.run.totals.broadcasts);
  EXPECT_GE(arq.run.totals.unicasts, 2 * base.run.totals.unicasts);
  EXPECT_GE(arq.run.totals.rounds, base.run.totals.rounds);
  EXPECT_GT(arq.run.totals.energy, base.run.totals.energy);
}

TEST(SyncGhsFaults, ClassicArqOnCleanChannelIsExactlyTwiceTheUnicasts) {
  // In classic TEST/ACCEPT/REJECT mode the fault-aware probe sequence at
  // zero loss is identical to the legacy one, so ARQ costs exactly one ACK
  // per DATA: 2× the unicasts, same broadcasts, same round count.
  const sim::Topology topo = random_topology(200, 43);
  ghs::SyncGhsOptions probe;
  probe.neighbor_cache = false;
  sim::RunConfig reliable;
  reliable.arq.enabled = true;
  const auto base = ghs::run_sync_ghs(topo, {}, probe);
  const auto arq = ghs::run_sync_ghs(topo, reliable, probe);
  EXPECT_TRUE(graph::same_edge_set(arq.run.tree, base.run.tree));
  EXPECT_EQ(arq.run.totals.unicasts, 2 * base.run.totals.unicasts);
  EXPECT_EQ(arq.run.totals.broadcasts, base.run.totals.broadcasts);
  EXPECT_EQ(arq.run.totals.rounds, base.run.totals.rounds);
  EXPECT_EQ(arq.run.arq.retransmissions, 0u);
  EXPECT_EQ(arq.run.arq.give_ups, 0u);
}

TEST(SyncGhsFaults, LossyRunStaysExactWithArq) {
  const sim::Topology topo = random_topology(300, 47);
  sim::RunConfig cfg;
  cfg.faults.loss = 0.1;
  cfg.faults.seed = 4711;
  cfg.arq.enabled = true;
  const auto result = ghs::run_sync_ghs(topo, cfg);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)));
  EXPECT_FALSE(result.run.hit_phase_cap);
  EXPECT_GT(result.run.faults.lost, 0u);
  EXPECT_GT(result.run.arq.retransmissions, 0u);
  EXPECT_GT(result.run.arq.timeout_rounds, 0u);
  expect_forest_consistent(topo, result.final_forest);
}

TEST(SyncGhsFaults, ClassicProbingAlsoSurvivesLoss) {
  const sim::Topology topo = random_topology(200, 53);
  sim::RunConfig cfg;
  cfg.faults.loss = 0.1;
  cfg.faults.seed = 12;
  cfg.arq.enabled = true;
  ghs::SyncGhsOptions options;
  options.neighbor_cache = false;
  const auto result = ghs::run_sync_ghs(topo, cfg, options);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)));
  EXPECT_FALSE(result.run.hit_phase_cap);
}

TEST(SyncGhsFaults, CrashMidRunLeavesSurvivingForestConsistent) {
  // A node dies permanently a few rounds in (mid-Step-1 in EOPT terms: the
  // engine below IS the Step-1/Step-2 engine). The surviving forest must be
  // structurally consistent, never touch the dead node, and — because a
  // vertex removal never un-justifies an MST edge (cycle property) — equal
  // the exact MSF of the surviving visibility graph.
  const std::size_t n = 64;
  const sim::Topology topo = random_topology(n, 59);
  const sim::NodeId victim = 7;
  sim::RunConfig cfg;
  cfg.faults.crashes = {{victim, 4, kForever}};
  const auto result = ghs::run_sync_ghs(topo, cfg);
  expect_forest_consistent(topo, result.final_forest);
  EXPECT_EQ(result.final_forest.leader[victim], victim);  // dead singleton
  for (const graph::Edge& e : result.run.tree) {
    EXPECT_NE(e.u, victim);
    EXPECT_NE(e.v, victim);
  }
  std::vector<graph::Edge> surviving_edges;
  for (const graph::Edge& e : topo.graph().edges()) {
    if (e.u != victim && e.v != victim) surviving_edges.push_back(e);
  }
  EXPECT_TRUE(graph::same_edge_set(result.run.tree,
                                   graph::kruskal_msf(n, surviving_edges)));
  EXPECT_FALSE(result.run.hit_phase_cap);
}

TEST(SyncGhsFaults, LeaderCrashTriggersReElection) {
  const std::size_t n = 48;
  const sim::Topology topo = random_topology(n, 61);
  // Crash two nodes, including node 0 — a frequent early leader.
  sim::RunConfig cfg;
  cfg.faults.crashes = {{0, 4, kForever}, {9, 6, kForever}};
  const auto result = ghs::run_sync_ghs(topo, cfg);
  expect_forest_consistent(topo, result.final_forest);
  std::vector<graph::Edge> surviving_edges;
  for (const graph::Edge& e : topo.graph().edges()) {
    if (e.u != 0 && e.v != 0 && e.u != 9 && e.v != 9)
      surviving_edges.push_back(e);
  }
  EXPECT_TRUE(graph::same_edge_set(result.run.tree,
                                   graph::kruskal_msf(n, surviving_edges)));
}

TEST(SyncGhsFaults, NodeCrashedAtRoundZeroNeverJoins) {
  // A node dead from birth must end as a dead singleton: the survivors build
  // the exact MSF of the topology without it, from the very first round.
  const std::size_t n = 48;
  const sim::Topology topo = random_topology(n, 73);
  const sim::NodeId victim = 11;
  sim::RunConfig cfg;
  cfg.faults.crashes = {{victim, 0, kForever}};
  const auto result = ghs::run_sync_ghs(topo, cfg);
  expect_forest_consistent(topo, result.final_forest);
  EXPECT_EQ(result.final_forest.leader[victim], victim);
  std::vector<graph::Edge> surviving_edges;
  for (const graph::Edge& e : topo.graph().edges()) {
    if (e.u != victim && e.v != victim) surviving_edges.push_back(e);
  }
  EXPECT_TRUE(graph::same_edge_set(result.run.tree,
                                   graph::kruskal_msf(n, surviving_edges)));
  EXPECT_FALSE(result.run.hit_phase_cap);
}

TEST(SyncGhsFaults, TemporaryCrashRecoversToTheExactMst) {
  const std::size_t n = 48;
  const sim::Topology topo = random_topology(n, 67);
  sim::RunConfig cfg;
  cfg.faults.crashes = {{5, 3, 9}};  // down a few rounds, then back
  const auto result = ghs::run_sync_ghs(topo, cfg);
  // After recovery the node rejoins and the full MST completes.
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)));
  EXPECT_FALSE(result.run.hit_phase_cap);
}

// ------------------------------------------------------- fault-aware EOPT

TEST(EoptFaults, SharedSessionReportsStatsAndStaysExact) {
  support::Rng rng(71);
  const sim::Topology topo =
      eopt::eopt_topology(geometry::uniform_points(400, rng));
  sim::RunConfig cfg;
  cfg.faults.loss = 0.05;
  cfg.arq.enabled = true;
  const auto result = eopt::run_eopt(topo, cfg);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)));
  EXPECT_FALSE(result.run.hit_phase_cap);
  EXPECT_GT(result.run.faults.lost, 0u);
  EXPECT_GT(result.run.arq.data_sent, 0u);
  EXPECT_GE(result.run.arq.delivered,
            result.run.arq.data_sent - result.run.arq.give_ups);
}

// Acceptance criterion: under 10% Bernoulli loss with ARQ, EOPT produces
// the exact Euclidean MST on n ∈ {256, 1024} RGGs across ≥ 20 seeds.
class EoptLossyExactness : public ::testing::TestWithParam<int> {};

TEST_P(EoptLossyExactness, ExactUnderTenPercentLoss) {
  const int seed = GetParam();
  for (const std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
    support::Rng rng(support::Rng::stream_seed(0xfa17ULL,
                                               static_cast<std::uint64_t>(seed) * 2 + (n == 1024)));
    const sim::Topology topo =
        eopt::eopt_topology(geometry::uniform_points(n, rng));
    sim::RunConfig cfg;
    cfg.faults.loss = 0.1;
    cfg.faults.seed = 0xbadc0deULL + static_cast<std::uint64_t>(seed);
    cfg.arq.enabled = true;
    const auto result = eopt::run_eopt(topo, cfg);
    EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)))
        << "n=" << n << " seed=" << seed;
    EXPECT_FALSE(result.run.hit_phase_cap) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, EoptLossyExactness,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace emst
