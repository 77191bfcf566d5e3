// Tests for the energy meter, topology, and synchronous network semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "emst/sim/network.hpp"
#include "emst/sim/topology.hpp"
#include "emst/support/rng.hpp"
#include "emst/geometry/sampling.hpp"

namespace emst::sim {
namespace {

Topology square_topology(double max_radius = 1.5) {
  // Unit-square corners: distances 1 (sides) and √2 (diagonals).
  return Topology({{0, 0}, {1, 0}, {0, 1}, {1, 1}}, max_radius);
}

TEST(EnergyMeter, UnicastChargesAlphaPower) {
  EnergyMeter meter({1.0, 2.0});
  meter.charge_unicast(0.5);
  meter.charge_unicast(0.5);
  EXPECT_DOUBLE_EQ(meter.totals().energy, 0.5);  // 2 × 0.25
  EXPECT_EQ(meter.totals().unicasts, 2u);
  EXPECT_EQ(meter.totals().messages(), 2u);
  EXPECT_EQ(meter.totals().deliveries, 2u);
}

TEST(EnergyMeter, BroadcastChargesOnceRegardlessOfReceivers) {
  EnergyMeter meter({1.0, 2.0});
  meter.charge_broadcast(0.2, 17);
  EXPECT_DOUBLE_EQ(meter.totals().energy, 0.04);
  EXPECT_EQ(meter.totals().broadcasts, 1u);
  EXPECT_EQ(meter.totals().deliveries, 17u);
}

TEST(EnergyMeter, CustomAlphaModel) {
  EnergyMeter meter({2.0, 1.0});  // a=2, α=1
  meter.charge_unicast(0.3);
  EXPECT_NEAR(meter.totals().energy, 0.6, 1e-12);
}

TEST(Topology, DistancesAndNeighbors) {
  const Topology topo = square_topology();
  EXPECT_EQ(topo.node_count(), 4u);
  EXPECT_DOUBLE_EQ(topo.distance(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(topo.distance(0, 3), std::sqrt(2.0));
  // Every pair within 1.5, so each node has 3 neighbors, sorted by distance.
  const auto nbs = topo.neighbors(0);
  ASSERT_EQ(nbs.size(), 3u);
  EXPECT_DOUBLE_EQ(nbs[0].w, 1.0);
  EXPECT_DOUBLE_EQ(nbs[2].w, std::sqrt(2.0));
}

TEST(Topology, NodesWithinUsesSpatialIndex) {
  const Topology topo = square_topology(1.0);  // diagonals NOT in adjacency
  const auto within = topo.nodes_within(0, 1.45);
  EXPECT_EQ(within.size(), 3u);  // spatial query still sees the diagonal
  EXPECT_EQ(topo.neighbors(0).size(), 2u);
}

using TestNet = Network<std::string>;

TEST(Network, UnicastDeliversNextRound) {
  const Topology topo = square_topology();
  TestNet net(topo);
  net.unicast(0, 1, "hello");
  EXPECT_TRUE(net.pending());
  const auto batch = net.collect_round();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].from, 0u);
  EXPECT_EQ(batch[0].to, 1u);
  EXPECT_EQ(batch[0].msg, "hello");
  EXPECT_DOUBLE_EQ(batch[0].distance, 1.0);
  EXPECT_FALSE(net.pending());
  EXPECT_EQ(net.meter().totals().rounds, 1u);
}

TEST(Network, DeliveryOrderDeterministicAndFifo) {
  const Topology topo = square_topology();
  TestNet net(topo);
  net.unicast(3, 1, "b-first");
  net.unicast(0, 1, "b-second");
  net.unicast(2, 0, "a");
  const auto batch = net.collect_round();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].to, 0u);  // receiver order
  EXPECT_EQ(batch[1].msg, "b-first");   // send order preserved per receiver
  EXPECT_EQ(batch[2].msg, "b-second");
}

TEST(Network, BroadcastRadiusFiltersReceivers) {
  const Topology topo = square_topology();
  TestNet net(topo);
  net.broadcast(0, 1.1, "ping");  // reaches (1,0) and (0,1) but not (1,1)
  const auto batch = net.collect_round();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].to, 1u);
  EXPECT_EQ(batch[1].to, 2u);
  // Energy: one broadcast at radius 1.1 → 1.21, not per-receiver.
  EXPECT_NEAR(net.meter().totals().energy, 1.21, 1e-12);
  EXPECT_EQ(net.meter().totals().broadcasts, 1u);
  EXPECT_EQ(net.meter().totals().deliveries, 2u);
}

TEST(Network, BroadcastZeroRadiusReachesNobody) {
  const Topology topo = square_topology();
  TestNet net(topo);
  net.broadcast(0, 0.0, "void");
  EXPECT_FALSE(net.pending());
  EXPECT_EQ(net.meter().totals().broadcasts, 1u);
  EXPECT_DOUBLE_EQ(net.meter().totals().energy, 0.0);
}

TEST(Network, UnboundedBroadcastUsesGrid) {
  const Topology topo = square_topology(0.5);  // adjacency is EMPTY
  TestNet net(topo, {}, /*unbounded_broadcast=*/true);
  net.broadcast(0, 1.5, "far");
  const auto batch = net.collect_round();
  EXPECT_EQ(batch.size(), 3u);  // all other corners heard it
}

TEST(Network, EnergyMatchesSumOfSquaredDistances) {
  support::Rng rng(103);
  const auto points = geometry::uniform_points(50, rng);
  const Topology topo(points, 0.5);
  TestNet net(topo);
  double expected = 0.0;
  for (NodeId u = 0; u < 50; ++u) {
    const auto nbs = topo.neighbors(u);
    if (nbs.empty()) continue;
    net.unicast(u, nbs[0].id, "x");
    expected += nbs[0].w * nbs[0].w;
  }
  EXPECT_NEAR(net.meter().totals().energy, expected, 1e-12);
  (void)net.collect_round();
}

TEST(Network, DelayedDeliveryArrivesLater) {
  const Topology topo = square_topology();
  DelayModel delays;
  delays.max_extra_delay = 3;
  delays.seed = 5;
  TestNet net(topo, {}, false, delays);
  net.unicast(0, 1, "slow");
  // The message arrives within 1 + max_extra_delay rounds, not necessarily
  // the first.
  std::size_t arrived_round = 0;
  for (std::size_t round = 1; round <= 4; ++round) {
    const auto batch = net.collect_round();
    if (!batch.empty()) {
      arrived_round = round;
      EXPECT_EQ(batch[0].msg, "slow");
      break;
    }
  }
  EXPECT_GE(arrived_round, 1u);
  EXPECT_LE(arrived_round, 4u);
  EXPECT_FALSE(net.pending());
}

TEST(Network, DelaysPreservePerEdgeFifo) {
  const Topology topo = square_topology();
  DelayModel delays;
  delays.max_extra_delay = 10;
  delays.seed = 99;
  TestNet net(topo, {}, false, delays);
  for (int i = 0; i < 20; ++i) net.unicast(0, 1, std::to_string(i));
  int expected = 0;
  for (std::size_t round = 0; round < 40 && net.pending(); ++round) {
    for (const auto& d : net.collect_round()) {
      EXPECT_EQ(d.msg, std::to_string(expected));
      ++expected;
    }
  }
  EXPECT_EQ(expected, 20);
}

TEST(Network, DelaysDeterministicPerSeed) {
  const Topology topo = square_topology();
  auto run = [&](std::uint64_t seed) {
    DelayModel delays;
    delays.max_extra_delay = 5;
    delays.seed = seed;
    TestNet net(topo, {}, false, delays);
    net.unicast(0, 1, "a");
    net.unicast(2, 3, "b");
    std::vector<std::size_t> arrival;
    for (std::size_t round = 0; net.pending(); ++round) {
      for (const auto& d : net.collect_round()) {
        (void)d;
        arrival.push_back(round);
      }
    }
    return arrival;
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(Network, UnboundedModeAllowsLongUnicasts) {
  const Topology topo = square_topology(1.0);  // diagonal exceeds the radius
  Network<std::string> bounded(topo);
  Network<std::string> unbounded(topo, {}, /*unbounded_broadcast=*/true);
  EXPECT_DEATH(bounded.unicast(0, 3, "too far"), "beyond the maximum");
  unbounded.unicast(0, 3, "fine");
  const auto batch = unbounded.collect_round();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_NEAR(batch[0].distance, std::sqrt(2.0), 1e-12);
}

TEST(Network, FuzzedMeterIdentity) {
  // Property: after any random sequence of unicasts/broadcasts, the meter's
  // totals equal a manual tally (energy, counts, deliveries).
  support::Rng rng(6053);
  const auto points = geometry::uniform_points(80, rng);
  const Topology topo(points, 0.4);
  TestNet net(topo);
  double energy = 0.0;
  std::uint64_t unicasts = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t deliveries = 0;
  for (int op = 0; op < 500; ++op) {
    const auto u = static_cast<NodeId>(rng.uniform_int(80));
    if (rng.uniform() < 0.5) {
      const auto nbs = topo.neighbors(u);
      if (nbs.empty()) continue;
      const auto& nb = nbs[rng.uniform_int(nbs.size())];
      net.unicast(u, nb.id, "m");
      energy += nb.w * nb.w;
      ++unicasts;
      ++deliveries;
    } else {
      const double radius = rng.uniform(0.0, 0.4);
      net.broadcast(u, radius, "b");
      energy += radius * radius;
      ++broadcasts;
      for (const auto& nb : topo.neighbors(u)) {
        if (nb.w <= radius) ++deliveries;
      }
    }
    if (op % 37 == 0) (void)net.collect_round();
  }
  while (net.pending()) (void)net.collect_round();
  EXPECT_NEAR(net.meter().totals().energy, energy, 1e-9);
  EXPECT_EQ(net.meter().totals().unicasts, unicasts);
  EXPECT_EQ(net.meter().totals().broadcasts, broadcasts);
  EXPECT_EQ(net.meter().totals().deliveries, deliveries);
}

TEST(Network, RoundsAccumulate) {
  const Topology topo = square_topology();
  TestNet net(topo);
  for (int i = 0; i < 5; ++i) {
    net.unicast(0, 1, "tick");
    (void)net.collect_round();
  }
  EXPECT_EQ(net.meter().totals().rounds, 5u);
}

}  // namespace
}  // namespace emst::sim
