// Tests for the RBN contention-resolution layer (§II interference model,
// §VIII constant-energy claim).
#include <gtest/gtest.h>

#include <cmath>

#include "emst/geometry/sampling.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/mac/rbn.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/rng.hpp"

namespace emst::mac {
namespace {

sim::Topology make_topology(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::Topology(geometry::uniform_points(n, rng),
                       rgg::connectivity_radius(n));
}

TEST(Rbn, EmptyBatch) {
  const sim::Topology topo = make_topology(10, 1);
  const RbnStats stats = resolve_contention(topo, {});
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.slots, 0u);
  EXPECT_EQ(stats.energy, 0.0);
}

TEST(Rbn, LoneTransmissionNeedsOneAttempt) {
  const sim::Topology topo({{0.1, 0.1}, {0.2, 0.1}}, 0.5);
  RbnOptions options;
  options.tx_probability = 1.0;  // no contention, always transmit
  const RbnStats stats =
      resolve_contention(topo, {{0, 1, 0.1}}, options);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.slots, 1u);
  EXPECT_NEAR(stats.energy, 0.01, 1e-12);
  EXPECT_NEAR(stats.energy_blowup(), 1.0, 1e-12);
}

TEST(Rbn, TwoCollidersBothEventuallyDeliver) {
  // Two senders whose receivers are in both interference ranges: if both
  // transmit in the same slot, both fail. With p = 1/(Δ+1) they desynchronize.
  const sim::Topology topo({{0.4, 0.5}, {0.6, 0.5}, {0.5, 0.45}, {0.5, 0.55}},
                           0.5);
  const RbnStats stats = resolve_contention(
      topo, {{0, 2, 0.2}, {1, 3, 0.2}});
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_GE(stats.attempts, 2u);
  EXPECT_GE(stats.slots, 1u);
}

TEST(Rbn, SimultaneousTransmitGuaranteedCollision) {
  // Force p = 1: both senders transmit every slot, colliding forever until
  // the slot cap trips — the degenerate case the random backoff exists for.
  const sim::Topology topo({{0.4, 0.5}, {0.6, 0.5}, {0.5, 0.45}, {0.5, 0.55}},
                           0.5);
  RbnOptions options;
  options.tx_probability = 1.0;
  options.max_slots = 50;
  EXPECT_DEATH(
      { (void)resolve_contention(topo, {{0, 2, 0.2}, {1, 3, 0.2}}, options); },
      "did not drain");
}

TEST(Rbn, DistantPairsDoNotInterfere) {
  // Two transmissions in opposite corners: no interference even at p = 1.
  const sim::Topology topo(
      {{0.05, 0.05}, {0.1, 0.05}, {0.9, 0.95}, {0.95, 0.95}}, 0.2);
  RbnOptions options;
  options.tx_probability = 1.0;
  const RbnStats stats =
      resolve_contention(topo, {{0, 1, 0.06}, {2, 3, 0.06}}, options);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.slots, 1u);
  EXPECT_EQ(stats.attempts, 2u);
}

TEST(Rbn, DeterministicForFixedSeed) {
  const sim::Topology topo = make_topology(200, 3);
  std::vector<Transmission> batch;
  for (sim::NodeId u = 0; u < 50; ++u) {
    const auto nbs = topo.neighbors(u);
    if (!nbs.empty()) batch.push_back({u, nbs[0].id, nbs[0].w});
  }
  const RbnStats a = resolve_contention(topo, batch);
  const RbnStats b = resolve_contention(topo, batch);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(Rbn, EnergyBlowupIsSmallConstant) {
  // The §VIII claim: expected attempts per message ≈ e with p = 1/(Δ+1).
  // Over a real neighbourhood-announcement workload the blow-up should land
  // well under 8 (e ≈ 2.72 plus tail effects).
  const sim::Topology topo = make_topology(500, 5);
  const RbnStats stats =
      announcement_round_under_rbn(topo, topo.max_radius());
  EXPECT_EQ(stats.delivered, 500u);
  EXPECT_GT(stats.energy_blowup(), 1.0);
  EXPECT_LT(stats.energy_blowup(), 8.0);
}

TEST(Rbn, TimeBlowupScalesWithDensity) {
  // Slots to drain an announcement round grow with the interference degree
  // Δ (denser graph ⇒ more slots); energy blow-up stays flat.
  const sim::Topology sparse = make_topology(300, 7);
  const sim::Topology dense = make_topology(2000, 7);
  const RbnStats s = announcement_round_under_rbn(sparse, sparse.max_radius());
  const RbnStats d = announcement_round_under_rbn(dense, dense.max_radius());
  EXPECT_GT(d.slots, s.slots);
  EXPECT_LT(std::abs(d.energy_blowup() - s.energy_blowup()), 4.0);
}

TEST(Rbn, AnnouncementReachesEveryNeighbor) {
  const sim::Topology topo = make_topology(100, 11);
  const RbnStats stats =
      announcement_round_under_rbn(topo, topo.max_radius());
  // One broadcast item per node with ≥1 neighbor; all delivered.
  std::size_t expected = 0;
  for (sim::NodeId u = 0; u < topo.node_count(); ++u) {
    if (!topo.neighbors(u).empty()) ++expected;
  }
  EXPECT_EQ(stats.delivered, expected);
}

TEST(Rbn, TxRxStricterThanRbn) {
  // Tx-Rx adds sender-side and receiver-busy constraints, so draining the
  // same workload takes at least as many attempts/slots.
  const sim::Topology topo = make_topology(400, 17);
  mac::RbnOptions rbn;
  rbn.seed = 7;
  mac::RbnOptions txrx = rbn;
  txrx.rule = InterferenceRule::kTxRx;
  const RbnStats a = announcement_round_under_rbn(topo, topo.max_radius(), rbn);
  const RbnStats b = announcement_round_under_rbn(topo, topo.max_radius(), txrx);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_GE(b.attempts, a.attempts);
  EXPECT_LT(b.energy_blowup(), 16.0);  // still a constant factor
}

TEST(Rbn, TxRxLoneTransmissionUnaffected) {
  const sim::Topology topo({{0.1, 0.1}, {0.2, 0.1}}, 0.5);
  RbnOptions options;
  options.tx_probability = 1.0;
  options.rule = InterferenceRule::kTxRx;
  const RbnStats stats = resolve_contention(topo, {{0, 1, 0.1}}, options);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.attempts, 1u);
}

TEST(Rbn, ReplayLogCoversAWholeMstRun) {
  // End-to-end §VIII: log a full modified-GHS run and replay it under RBN.
  const sim::Topology topo = make_topology(600, 23);
  ghs::TxLog log;
  ghs::SyncGhsOptions options;
  options.transmission_log = &log;
  const auto run = ghs::run_sync_ghs(topo, {}, options);
  ASSERT_FALSE(log.empty());
  // Invariant: the log's collision-free energy equals the metered energy —
  // every charged message was logged and vice versa.
  const RbnStats stats = replay_log(topo, log);
  EXPECT_NEAR(stats.collision_free_energy, run.run.totals.energy, 1e-9);
  EXPECT_EQ(stats.delivered,
            [&] {
              std::size_t messages = 0;
              for (const auto& batch : log) messages += batch.size();
              return messages;
            }() -
                [&] {
                  // Broadcasts with no receiver are skipped by the replay.
                  std::size_t empty = 0;
                  for (const auto& batch : log) {
                    for (const auto& record : batch) {
                      if (record.is_broadcast &&
                          topo.neighbors_within(record.from,
                                                record.power_radius)
                              .empty())
                        ++empty;
                    }
                  }
                  return empty;
                }());
  // Constant-factor energy, as §VIII claims — end to end.
  EXPECT_GT(stats.energy_blowup(), 1.0);
  EXPECT_LT(stats.energy_blowup(), 8.0);
}

TEST(Rbn, ReplayLogDeterministic) {
  const sim::Topology topo = make_topology(200, 29);
  ghs::TxLog log;
  ghs::SyncGhsOptions options;
  options.transmission_log = &log;
  (void)ghs::run_sync_ghs(topo, {}, options);
  const RbnStats a = replay_log(topo, log);
  const RbnStats b = replay_log(topo, log);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(Rbn, DistinctPairsAtLeastNLogNScale) {
  // The Korach–Moran–Zaks combinatorial fact behind Thm 4.1: a spanning-tree
  // construction touches Ω(n log n) distinct pairs. Measure it on a logged
  // modified-GHS run.
  const std::size_t n = 1000;
  const sim::Topology topo = make_topology(n, 37);
  ghs::TxLog log;
  ghs::SyncGhsOptions options;
  options.transmission_log = &log;
  (void)ghs::run_sync_ghs(topo, {}, options);
  const std::size_t pairs = ghs::distinct_pairs_used(topo, log);
  const double n_log_n = static_cast<double>(n) * std::log(static_cast<double>(n));
  EXPECT_GT(static_cast<double>(pairs), 0.5 * n_log_n);
  // And it cannot exceed the edge count of the visibility graph.
  EXPECT_LE(pairs, topo.graph().edge_count());
}

TEST(Rbn, DistinctPairsCountsBroadcastFanout) {
  // One broadcast at full radius touches exactly deg(u) pairs.
  const sim::Topology topo = make_topology(50, 41);
  ghs::TxLog log;
  log.push_back({ghs::TxRecord{7, 7, topo.max_radius(), true}});
  EXPECT_EQ(ghs::distinct_pairs_used(topo, log), topo.neighbors(7).size());
  // A duplicate unicast over the same pair counts once.
  const auto v = topo.neighbors(7)[0].id;
  log.push_back({ghs::TxRecord{7, v, topo.distance(7, v), false},
                 ghs::TxRecord{v, 7, topo.distance(7, v), false}});
  EXPECT_EQ(ghs::distinct_pairs_used(topo, log), topo.neighbors(7).size());
}

TEST(Rbn, LoggingDoesNotPerturbTheRun) {
  const sim::Topology topo = make_topology(400, 31);
  ghs::TxLog log;
  ghs::SyncGhsOptions with_log;
  with_log.transmission_log = &log;
  const auto logged = ghs::run_sync_ghs(topo, {}, with_log);
  const auto plain = ghs::run_sync_ghs(topo, {});
  EXPECT_DOUBLE_EQ(logged.run.totals.energy, plain.run.totals.energy);
  EXPECT_EQ(logged.run.totals.messages(), plain.run.totals.messages());
}

TEST(Rbn, CollisionFreeEnergyMatchesMeterModel) {
  const sim::Topology topo = make_topology(100, 13);
  const double r = topo.max_radius();
  const RbnStats stats = announcement_round_under_rbn(topo, r);
  std::size_t senders = 0;
  for (sim::NodeId u = 0; u < topo.node_count(); ++u) {
    if (!topo.neighbors(u).empty()) ++senders;
  }
  EXPECT_NEAR(stats.collision_free_energy,
              static_cast<double>(senders) * r * r, 1e-9);
}

}  // namespace
}  // namespace emst::mac
