// Tests for the metered tree collectives and the meter's per-node ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "emst/geometry/sampling.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/sim/collectives.hpp"
#include "emst/support/rng.hpp"

namespace emst::sim {
namespace {

TEST(Schedule, PathForest) {
  // 0 <- 1 <- 2 and root 3.
  const std::vector<graph::NodeId> parent = {graph::kNoNode, 0, 1,
                                             graph::kNoNode};
  const TreeSchedule schedule = make_schedule(parent);
  EXPECT_EQ(schedule.max_depth, 2u);
  EXPECT_EQ(schedule.depth[0], 0u);
  EXPECT_EQ(schedule.depth[2], 2u);
  EXPECT_EQ(schedule.depth[3], 0u);
  // top_down respects depth order.
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < schedule.top_down.size(); ++i)
    position[schedule.top_down[i]] = i;
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[1], position[2]);
}

TEST(ForestParents, TwoTrees) {
  const std::vector<graph::Edge> tree = {{0, 1, 1.0}, {1, 2, 1.0}, {3, 4, 1.0}};
  const auto parent = forest_parents(5, tree, {0, 3});
  EXPECT_EQ(parent[0], graph::kNoNode);
  EXPECT_EQ(parent[1], 0u);
  EXPECT_EQ(parent[2], 1u);
  EXPECT_EQ(parent[3], graph::kNoNode);
  EXPECT_EQ(parent[4], 3u);
}

TEST(ForestParents, UnreachableNodeAborts) {
  const std::vector<graph::Edge> tree = {{0, 1, 1.0}};
  EXPECT_DEATH({ (void)forest_parents(3, tree, {0}); }, "reachable");
}

class CollectivesOnRandomTrees : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesOnRandomTrees, ConvergecastCountsSubtreeSizes) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  support::Rng rng(seed);
  const std::size_t n = 300;
  const auto points = geometry::uniform_points(n, rng);
  const Topology topo(points, rgg::connectivity_radius(n));
  const auto mst = rgg::euclidean_mst(points);
  ASSERT_EQ(mst.size(), n - 1);
  const auto parent = forest_parents(n, mst, {0});
  const auto schedule = make_schedule(parent);
  EnergyMeter meter;
  const auto subtree = tree_convergecast<std::size_t>(
      topo, parent, schedule, std::vector<std::size_t>(n, 1),
      [](std::size_t a, std::size_t b) { return a + b; }, meter);
  EXPECT_EQ(subtree[0], n);  // root aggregates everyone
  // One unicast per tree edge; energy = Σ d² over tree edges.
  EXPECT_EQ(meter.totals().unicasts, n - 1);
  double expected = 0.0;
  for (const graph::Edge& e : mst) expected += e.w * e.w;
  EXPECT_NEAR(meter.totals().energy, expected, 1e-9);
  EXPECT_EQ(meter.totals().rounds, schedule.max_depth);
}

TEST_P(CollectivesOnRandomTrees, BroadcastPropagatesRootValue) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 100;
  support::Rng rng(seed);
  const std::size_t n = 200;
  const auto points = geometry::uniform_points(n, rng);
  const Topology topo(points, rgg::connectivity_radius(n));
  const auto mst = rgg::euclidean_mst(points);
  ASSERT_EQ(mst.size(), n - 1);
  const auto parent = forest_parents(n, mst, {5});
  const auto schedule = make_schedule(parent);
  EnergyMeter meter;
  std::vector<int> init(n, -1);
  init[5] = 42;
  const auto values = tree_broadcast<int>(
      topo, parent, schedule, std::move(init),
      [](int from_parent, graph::NodeId) { return from_parent; }, meter);
  for (const int v : values) EXPECT_EQ(v, 42);
  EXPECT_EQ(meter.totals().unicasts, n - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectivesOnRandomTrees,
                         ::testing::Values(1, 2, 3));

TEST(PerNodeLedger, SumsToTotalAndAttributesSenders) {
  EnergyMeter meter({1.0, 2.0});
  meter.enable_per_node(3);
  meter.charge_unicast(0, 0.5);   // node 0 pays 0.25
  meter.charge_unicast(0, 0.5);   // node 0 pays 0.25
  meter.charge_broadcast(2, 0.1, 5);  // node 2 pays 0.01
  const auto& ledger = meter.per_node();
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_DOUBLE_EQ(ledger[0], 0.5);
  EXPECT_DOUBLE_EQ(ledger[1], 0.0);
  EXPECT_DOUBLE_EQ(ledger[2], 0.01);
  double total = 0.0;
  for (const double e : ledger) total += e;
  EXPECT_NEAR(total, meter.totals().energy, 1e-12);
  EXPECT_DOUBLE_EQ(meter.hottest_node(), 0.5);
}

TEST(PerNodeLedger, DisabledByDefault) {
  EnergyMeter meter;
  meter.charge_unicast(0, 0.5);
  EXPECT_TRUE(meter.per_node().empty());
  EXPECT_EQ(meter.hottest_node(), 0.0);
}

TEST(CollectivesEdgeCases, AllSingletonForestMovesNothing) {
  // Every node is its own root: no tree edges, so neither collective sends
  // a message, ticks a round, or touches any value.
  support::Rng rng(7);
  const auto points = geometry::uniform_points(6, rng);
  const Topology topo(points, 0.5);
  const std::vector<graph::NodeId> parent(6, graph::kNoNode);
  const TreeSchedule schedule = make_schedule(parent);
  EXPECT_EQ(schedule.max_depth, 0u);
  EnergyMeter meter;
  const std::vector<int> init = {0, 1, 2, 3, 4, 5};
  const auto down = tree_broadcast<int>(
      topo, parent, schedule, init,
      [](int v, graph::NodeId) { return v + 100; }, meter);
  EXPECT_EQ(down, init);
  const auto up = tree_convergecast<int>(
      topo, parent, schedule, init, [](int a, int b) { return a + b; }, meter);
  EXPECT_EQ(up, init);
  EXPECT_EQ(meter.totals().messages(), 0u);
  EXPECT_EQ(meter.totals().rounds, 0u);
  EXPECT_DOUBLE_EQ(meter.totals().energy, 0.0);
}

TEST(CollectivesEdgeCases, RootOnlyTree) {
  // A one-node deployment is a root-only tree: both collectives are no-ops
  // that return the root's own value.
  const Topology topo({{0.5, 0.5}}, 0.1);
  const auto parent = forest_parents(1, {}, {0});
  const TreeSchedule schedule = make_schedule(parent);
  EnergyMeter meter;
  const auto down = tree_broadcast<int>(
      topo, parent, schedule, {42},
      [](int v, graph::NodeId) { return v; }, meter);
  EXPECT_EQ(down, (std::vector<int>{42}));
  const auto up = tree_convergecast<std::size_t>(
      topo, parent, schedule, {1},
      [](std::size_t a, std::size_t b) { return a + b; }, meter);
  EXPECT_EQ(up, (std::vector<std::size_t>{1}));
  EXPECT_EQ(meter.totals().messages(), 0u);
}

TEST(CollectivesEdgeCases, ConvergecastSkipsCrashedInteriorSubtree) {
  // Path root 0 <- 1 <- 2 with interior node 1 down for the whole run: the
  // leaf burns its retry budget against a dead receiver, the interior
  // node's own send is suppressed, and the root only ever counts itself.
  const Topology topo({{0.1, 0.5}, {0.2, 0.5}, {0.3, 0.5}}, 0.15);
  const std::vector<graph::NodeId> parent = {graph::kNoNode, 0, 1};
  const TreeSchedule schedule = make_schedule(parent);
  FaultModel faults;
  faults.crashes = {{1, 0, std::numeric_limits<std::uint64_t>::max()}};
  FaultInjector injector(faults);
  ArqOptions arq;
  arq.enabled = true;
  arq.max_retries = 2;
  ArqLink link(&injector, arq);
  EnergyMeter meter;
  const auto subtree = tree_convergecast<std::size_t>(
      topo, parent, schedule, std::vector<std::size_t>(3, 1),
      [](std::size_t a, std::size_t b) { return a + b; }, meter, &link);
  EXPECT_EQ(subtree, (std::vector<std::size_t>{1, 1, 1}));
  // Leaf 2 charges max_retries+1 DATA attempts; node 1's session is free.
  EXPECT_EQ(meter.totals().unicasts, 3u);
  EXPECT_EQ(link.stats().give_ups, 1u);
  EXPECT_EQ(link.stats().delivered, 0u);
  EXPECT_EQ(injector.stats().dropped_crashed, 3u);
  EXPECT_EQ(injector.stats().suppressed, 1u);
}

TEST(CollectivesEdgeCases, BroadcastLeavesCrashedSubtreeStale) {
  // Same path, broadcasting down: the crashed interior never receives the
  // root value and never forwards it, so the whole subtree stays stale.
  const Topology topo({{0.1, 0.5}, {0.2, 0.5}, {0.3, 0.5}}, 0.15);
  const std::vector<graph::NodeId> parent = {graph::kNoNode, 0, 1};
  const TreeSchedule schedule = make_schedule(parent);
  FaultModel faults;
  faults.crashes = {{1, 0, std::numeric_limits<std::uint64_t>::max()}};
  FaultInjector injector(faults);
  ArqOptions arq;
  arq.enabled = true;
  arq.max_retries = 1;
  ArqLink link(&injector, arq);
  EnergyMeter meter;
  const auto values = tree_broadcast<int>(
      topo, parent, schedule, {42, -1, -1},
      [](int from_parent, graph::NodeId) { return from_parent; }, meter,
      &link);
  EXPECT_EQ(values, (std::vector<int>{42, -1, -1}));
  EXPECT_EQ(link.stats().delivered, 0u);
  EXPECT_EQ(injector.stats().suppressed, 1u);
}

}  // namespace
}  // namespace emst::sim
