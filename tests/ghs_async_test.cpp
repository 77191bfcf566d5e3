// Asynchrony and partial-wakeup tests for classical GHS.
//
// GHS was designed for asynchronous FIFO networks; the synchronous run is
// just one legal schedule. These tests perturb the schedule with random
// per-message delays and with partial spontaneous wakeups and require the
// output MST to be bit-identical — the strongest property-style check the
// 1983 correctness proof gives us.
#include <gtest/gtest.h>

#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/rng.hpp"

namespace emst::ghs {
namespace {

sim::Topology make_topology(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::Topology(geometry::uniform_points(n, rng),
                       rgg::connectivity_radius(n));
}

class AsyncGhs : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(AsyncGhs, DelaysDoNotChangeTheMst) {
  const auto [n, topo_seed, delay_seed] = GetParam();
  const sim::Topology topo = make_topology(static_cast<std::size_t>(n),
                                           static_cast<std::uint64_t>(topo_seed));
  const auto reference = graph::kruskal_msf(topo.node_count(), topo.graph().edges());

  ClassicGhsOptions options;
  options.delays.max_extra_delay = 5;
  options.delays.seed =
      static_cast<std::uint64_t>(delay_seed) * 0x9e3779b97f4a7c15ULL;
  const sim::RunResult result = run_classic_ghs(topo, {}, options);
  EXPECT_TRUE(graph::same_edge_set(result.tree, reference))
      << "n=" << n << " delay seed " << delay_seed;
}

INSTANTIATE_TEST_SUITE_P(
    DelaySweep, AsyncGhs,
    ::testing::Combine(::testing::Values(50, 200, 600),
                       ::testing::Values(1, 2),
                       ::testing::Values(1, 2, 3, 4)));

TEST(AsyncGhs, HeavyDelaysStillExact) {
  const sim::Topology topo = make_topology(300, 7);
  const auto reference = graph::kruskal_msf(topo.node_count(), topo.graph().edges());
  ClassicGhsOptions options;
  options.delays.max_extra_delay = 20;
  options.delays.seed = 999;
  const sim::RunResult result = run_classic_ghs(topo, {}, options);
  EXPECT_TRUE(graph::same_edge_set(result.tree, reference));
  // The schedule stretches time but never energy or the tree.
  EXPECT_GT(result.totals.rounds, run_classic_ghs(topo).totals.rounds);
}

TEST(AsyncGhs, DelaysPreserveEnergyUpToSchedule) {
  // Energy = Σ d² over messages; delays reorder the schedule, which can
  // change WHICH messages are sent (different interleavings resolve merges
  // differently), but the result must stay the exact MST and the energy must
  // stay within the classic GHS message bound.
  const sim::Topology topo = make_topology(400, 17);
  ClassicGhsOptions options;
  options.delays.max_extra_delay = 3;
  const sim::RunResult delayed = run_classic_ghs(topo, {}, options);
  const sim::RunResult sync = run_classic_ghs(topo);
  EXPECT_TRUE(graph::same_edge_set(delayed.tree, sync.tree));
  EXPECT_LT(delayed.totals.energy, 4.0 * sync.totals.energy + 1.0);
}

TEST(PartialWakeup, SingleStarterStillBuildsTheMst) {
  const sim::Topology topo = make_topology(300, 23);
  ASSERT_EQ(graph::kruskal_msf(topo.node_count(), topo.graph().edges()).size(),
            topo.node_count() - 1)
      << "test needs a connected instance";
  ClassicGhsOptions options;
  options.spontaneous_wakeups = {0};
  const sim::RunResult result = run_classic_ghs(topo, {}, options);
  const auto reference = graph::kruskal_msf(topo.node_count(), topo.graph().edges());
  EXPECT_TRUE(graph::same_edge_set(result.tree, reference));
}

TEST(PartialWakeup, FewStartersWithDelays) {
  const sim::Topology topo = make_topology(400, 29);
  ClassicGhsOptions options;
  options.spontaneous_wakeups = {3, 77, 201};
  options.delays.max_extra_delay = 4;
  const sim::RunResult result = run_classic_ghs(topo, {}, options);
  const auto reference = graph::kruskal_msf(topo.node_count(), topo.graph().edges());
  EXPECT_TRUE(graph::same_edge_set(result.tree, reference));
}

TEST(PartialWakeup, ComponentWithoutStarterSleeps) {
  // Two clusters far apart; wake only the left one. The right cluster must
  // produce no edges.
  std::vector<geometry::Point2> points = {
      {0.1, 0.1}, {0.12, 0.1}, {0.1, 0.12},   // left cluster
      {0.9, 0.9}, {0.92, 0.9}, {0.9, 0.92}};  // right cluster
  const sim::Topology topo(std::move(points), 0.05);
  ClassicGhsOptions options;
  options.spontaneous_wakeups = {0};
  const sim::RunResult result = run_classic_ghs(topo, {}, options);
  EXPECT_EQ(result.tree.size(), 2u);  // left cluster spanned, right asleep
  for (const graph::Edge& e : result.tree) {
    EXPECT_LT(e.u, 3u);
    EXPECT_LT(e.v, 3u);
  }
}

}  // namespace
}  // namespace emst::ghs
