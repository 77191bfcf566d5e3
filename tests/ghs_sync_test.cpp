// Tests for the phase-synchronous GHS (classic-probe and modified
// neighbor-cache flavours), seeded continuation, and passive fragments.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "emst/geometry/sampling.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/graph/union_find.hpp"
#include "emst/rgg/components.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/rng.hpp"

namespace emst::ghs {
namespace {

sim::Topology make_topology(std::size_t n, double radius, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::Topology(geometry::uniform_points(n, rng), radius);
}

std::vector<graph::Edge> reference_msf(const sim::Topology& topo, double radius) {
  std::vector<graph::Edge> edges;
  for (const graph::Edge& e : topo.graph().edges()) {
    if (e.w <= radius) edges.push_back(e);
  }
  return graph::kruskal_msf(topo.node_count(), edges);
}

class SyncGhsExactness
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SyncGhsExactness, MatchesKruskal) {
  const auto [n, seed, cache] = GetParam();
  const double radius = rgg::connectivity_radius(static_cast<std::size_t>(n), 1.6);
  const sim::Topology topo = make_topology(static_cast<std::size_t>(n), radius,
                                           static_cast<std::uint64_t>(seed) * 31 + 5);
  SyncGhsOptions options;
  options.neighbor_cache = cache;
  const SyncGhsResult result = run_sync_ghs(topo, {}, options);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo, radius)));
}

INSTANTIATE_TEST_SUITE_P(
    BothFlavours, SyncGhsExactness,
    ::testing::Combine(::testing::Values(10, 100, 500, 1500),
                       ::testing::Values(1, 2, 3),
                       ::testing::Bool()));

TEST(SyncGhs, DisconnectedGraphMakesForest) {
  const std::size_t n = 600;
  const double radius = rgg::percolation_radius(n, 1.4);
  const sim::Topology topo = make_topology(n, radius, 29);
  SyncGhsOptions options;
  const SyncGhsResult result = run_sync_ghs(topo, {}, options);
  const auto reference = reference_msf(topo, radius);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference));
  EXPECT_EQ(result.run.fragments, n - reference.size());
  // Final forest is consistent: same leader iff same component.
  const rgg::Components comps = rgg::connected_components(topo.graph());
  for (sim::NodeId u = 0; u < n; ++u) {
    for (sim::NodeId v = u + 1; v < n; ++v) {
      if (comps.label[u] == comps.label[v]) {
        EXPECT_EQ(result.final_forest.leader[u], result.final_forest.leader[v]);
      } else {
        EXPECT_NE(result.final_forest.leader[u], result.final_forest.leader[v]);
      }
    }
  }
}

TEST(SyncGhs, CacheAndProbeProduceIdenticalTrees) {
  for (std::uint64_t seed = 40; seed < 45; ++seed) {
    const std::size_t n = 400;
    const double radius = rgg::connectivity_radius(n);
    const sim::Topology topo = make_topology(n, radius, seed);
    SyncGhsOptions probe;
    probe.neighbor_cache = false;
    SyncGhsOptions cache;
    cache.neighbor_cache = true;
    const auto a = run_sync_ghs(topo, {}, probe);
    const auto b = run_sync_ghs(topo, {}, cache);
    EXPECT_TRUE(graph::same_edge_set(a.run.tree, b.run.tree));
  }
}

TEST(SyncGhs, CacheModeUsesFewerMessagesOnDenseGraphs) {
  // The modified GHS replaces Θ(|E|) TEST/REJECT traffic with n·φ
  // announcements; at the connectivity radius |E| = Θ(n log n) dominates.
  const std::size_t n = 2000;
  const double radius = rgg::connectivity_radius(n);
  const sim::Topology topo = make_topology(n, radius, 47);
  SyncGhsOptions probe;
  probe.neighbor_cache = false;
  SyncGhsOptions cache;
  cache.neighbor_cache = true;
  const auto a = run_sync_ghs(topo, {}, probe);
  const auto b = run_sync_ghs(topo, {}, cache);
  EXPECT_LT(b.run.totals.messages(), a.run.totals.messages());
}

TEST(SyncGhs, SeededContinuationCompletesTheMst) {
  // Stage 1 at the percolation radius, stage 2 at the connectivity radius —
  // exactly EOPT's shape — must equal single-shot Kruskal at r₂.
  const std::size_t n = 800;
  const double r2 = rgg::connectivity_radius(n);
  const double r1 = rgg::percolation_radius(n, 1.4);
  const sim::Topology topo = make_topology(n, r2, 53);
  SyncGhsOptions step1;
  step1.radius = r1;
  const auto stage1 = run_sync_ghs(topo, {}, step1);
  SyncGhsOptions step2;
  step2.radius = r2;
  const auto stage2 = run_sync_ghs(topo, {}, step2, stage1.final_forest);
  EXPECT_TRUE(graph::same_edge_set(stage2.run.tree, reference_msf(topo, r2)));
}

TEST(SyncGhs, PassiveFragmentStillAbsorbsNeighbors) {
  // Mark the largest stage-1 fragment passive; the final tree must still be
  // the exact MST, because small fragments connect *into* it.
  const std::size_t n = 1200;
  const double r2 = rgg::connectivity_radius(n);
  const double r1 = rgg::percolation_radius(n, 1.4);
  const sim::Topology topo = make_topology(n, r2, 59);
  SyncGhsOptions step1;
  step1.radius = r1;
  const auto stage1 = run_sync_ghs(topo, {}, step1);
  // Find the biggest fragment.
  std::unordered_map<sim::NodeId, std::size_t> sizes;
  for (sim::NodeId u = 0; u < n; ++u) ++sizes[stage1.final_forest.leader[u]];
  sim::NodeId giant = 0;
  std::size_t best = 0;
  for (const auto& [leader, size] : sizes) {
    if (size > best) {
      best = size;
      giant = leader;
    }
  }
  SyncGhsOptions step2;
  step2.radius = r2;
  step2.passive_fragments = {giant};
  const auto stage2 = run_sync_ghs(topo, {}, step2, stage1.final_forest);
  EXPECT_TRUE(graph::same_edge_set(stage2.run.tree, reference_msf(topo, r2)));
  // With id retention the giant's leader survives.
  EXPECT_EQ(stage2.final_forest.leader[giant], giant);
}

TEST(SyncGhs, PassiveIdRetentionReducesAnnouncements) {
  const std::size_t n = 1500;
  const double r2 = rgg::connectivity_radius(n);
  const double r1 = rgg::percolation_radius(n, 1.4);
  const sim::Topology topo = make_topology(n, r2, 61);
  SyncGhsOptions step1;
  step1.radius = r1;
  const auto stage1 = run_sync_ghs(topo, {}, step1);
  std::unordered_map<sim::NodeId, std::size_t> sizes;
  for (sim::NodeId u = 0; u < n; ++u) ++sizes[stage1.final_forest.leader[u]];
  sim::NodeId giant = 0;
  std::size_t best = 0;
  for (const auto& [leader, size] : sizes) {
    if (size > best) {
      best = size;
      giant = leader;
    }
  }
  ASSERT_GT(best, n / 4);
  auto run_step2 = [&](bool retain) {
    SyncGhsOptions step2;
    step2.radius = r2;
    step2.passive_fragments = {giant};
    step2.retain_passive_id = retain;
    return run_sync_ghs(topo, {}, step2, stage1.final_forest);
  };
  const auto with_retention = run_step2(true);
  const auto without = run_step2(false);
  EXPECT_TRUE(graph::same_edge_set(with_retention.run.tree, without.run.tree));
  // Giving up the giant's id forces its Θ(n) members to re-announce.
  EXPECT_LT(with_retention.run.totals.broadcasts,
            without.run.totals.broadcasts);
}

class SeededForestFuzz : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SeededForestFuzz, AnyMstPrefixSeedCompletesToTheMsf) {
  // Property: seeding the engine with ANY prefix of the Kruskal order (a
  // subforest of the MST) yields the exact MSF. The prefix length and the
  // instance both vary.
  const auto [seed, prefix_permille] = GetParam();
  const std::size_t n = 500;
  const double radius = rgg::connectivity_radius(n);
  const sim::Topology topo = make_topology(n, radius,
                                           static_cast<std::uint64_t>(seed) * 193);
  const auto reference = reference_msf(topo, radius);
  const std::size_t prefix =
      reference.size() * static_cast<std::size_t>(prefix_permille) / 1000;
  FragmentForest forest;
  forest.leader.resize(n);
  {
    graph::UnionFind dsu(n);
    for (std::size_t i = 0; i < prefix; ++i) {
      forest.tree.push_back(reference[i]);
      dsu.unite(reference[i].u, reference[i].v);
    }
    for (sim::NodeId u = 0; u < n; ++u) forest.leader[u] = dsu.find(u);
  }
  for (const bool cache : {true, false}) {
    SyncGhsOptions options;
    options.neighbor_cache = cache;
    const auto result = run_sync_ghs(topo, {}, options, forest);
    EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference))
        << "seed=" << seed << " prefix=" << prefix << " cache=" << cache;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrefixSweep, SeededForestFuzz,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0, 100, 500, 900, 1000)));

TEST(SyncGhs, LargeScaleExactness) {
  // Robustness at 30k nodes (≈ 6× the paper's largest experiment).
  const std::size_t n = 30000;
  const double radius = rgg::connectivity_radius(n);
  const sim::Topology topo = make_topology(n, radius, 401);
  const auto result = run_sync_ghs(topo, {});
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo, radius)));
}

TEST(SyncGhs, MinPowerAnnouncementsExactAndCheaper) {
  const std::size_t n = 900;
  const double radius = rgg::connectivity_radius(n);
  const sim::Topology topo = make_topology(n, radius, 431);
  SyncGhsOptions plain;
  SyncGhsOptions min_power;
  min_power.announce_min_power = true;
  const auto a = run_sync_ghs(topo, {}, plain);
  const auto b = run_sync_ghs(topo, {}, min_power);
  // Identical receiver sets ⇒ identical protocol ⇒ identical tree and
  // message counts; only broadcast energy differs.
  EXPECT_TRUE(graph::same_edge_set(a.run.tree, b.run.tree));
  EXPECT_EQ(a.run.totals.messages(), b.run.totals.messages());
  EXPECT_LT(b.run.totals.energy, a.run.totals.energy);
}

TEST(SyncGhs, PerNodeLedgerMatchesTotal) {
  const std::size_t n = 500;
  const sim::Topology topo = make_topology(n, rgg::connectivity_radius(n), 433);
  sim::RunConfig cfg;
  cfg.track_per_node_energy = true;
  const auto result = run_sync_ghs(topo, cfg);
  ASSERT_EQ(result.run.per_node_energy.size(), n);
  double total = 0.0;
  for (const double e : result.run.per_node_energy) total += e;
  EXPECT_NEAR(total, result.run.totals.energy, 1e-9);
}

TEST(SyncGhs, BoruvkaTrajectoryAtLeastHalves) {
  // Each phase every active fragment merges with at least one other, so the
  // active-fragment count at least halves (finished fragments excepted; on
  // a connected graph there are none until the end).
  const std::size_t n = 2000;
  const double radius = rgg::connectivity_radius(n);
  const sim::Topology topo = make_topology(n, radius, 409);
  const auto result = run_sync_ghs(topo, {});
  const auto& traj = result.fragments_per_phase;
  ASSERT_GE(traj.size(), 2u);
  EXPECT_EQ(traj.front(), n);
  EXPECT_EQ(traj.back(), 1u);
  for (std::size_t i = 1; i + 1 < traj.size(); ++i) {
    // Strict Borůvka halving between consecutive phases (last entry is the
    // post-final state and may equal its predecessor when the final phase
    // only discovers "no outgoing edge").
    EXPECT_LE(traj[i], (traj[i - 1] + 1) / 2) << "phase " << i;
  }
}

TEST(SyncGhs, PhasesLogarithmic) {
  const std::size_t n = 1024;
  const double radius = rgg::connectivity_radius(n);
  const sim::Topology topo = make_topology(n, radius, 67);
  const auto result = run_sync_ghs(topo, {});
  EXPECT_GE(result.run.phases, 1u);
  EXPECT_LE(result.run.phases, 14u);
}

TEST(SyncGhs, CensusCountsAndCharges) {
  const std::size_t n = 500;
  const double r1 = rgg::percolation_radius(n, 1.4);
  const sim::Topology topo = make_topology(n, rgg::connectivity_radius(n), 71);
  SyncGhsOptions step1;
  step1.radius = r1;
  const auto stage1 = run_sync_ghs(topo, {}, step1);
  sim::EnergyMeter meter;
  const auto sizes = fragment_census(topo, stage1.final_forest, meter);
  // Sizes consistent with the forest.
  std::unordered_map<sim::NodeId, std::size_t> expect;
  for (sim::NodeId u = 0; u < n; ++u) ++expect[stage1.final_forest.leader[u]];
  for (sim::NodeId u = 0; u < n; ++u)
    EXPECT_EQ(sizes[u], expect[stage1.final_forest.leader[u]]);
  // 2 unicasts per tree edge.
  EXPECT_EQ(meter.totals().unicasts, 2 * stage1.final_forest.tree.size());
  EXPECT_GT(meter.totals().energy, 0.0);
}

}  // namespace
}  // namespace emst::ghs
