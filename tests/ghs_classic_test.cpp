// Tests for the classical GHS reconstruction: exactness against Kruskal on
// connected AND disconnected visibility graphs, message-complexity sanity,
// and accounting invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/graph/gabriel.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/rng.hpp"

namespace emst::ghs {
namespace {

sim::Topology make_topology(std::size_t n, double radius, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::Topology(geometry::uniform_points(n, rng), radius);
}

/// The message anatomy: classic GHS charges each message type to its own
/// kind cell of the run phase (valid when `record_breakdown` was set).
const sim::EnergyBreakdown::Cell& type_cell(const sim::RunResult& run,
                                            GhsMsgType type) {
  return run.breakdown.cell(sim::PhaseTag::kRun, to_msg_kind(type));
}

TEST(ClassicGhs, TwoNodes) {
  const sim::Topology topo({{0.1, 0.1}, {0.2, 0.2}}, 0.5);
  const sim::RunResult result = run_classic_ghs(topo);
  ASSERT_EQ(result.tree.size(), 1u);
  EXPECT_EQ(result.fragments, 1u);
  EXPECT_GT(result.totals.energy, 0.0);
  EXPECT_GE(result.totals.messages(), 2u);
}

TEST(ClassicGhs, TwoIsolatedNodes) {
  const sim::Topology topo({{0.0, 0.0}, {1.0, 1.0}}, 0.1);
  const sim::RunResult result = run_classic_ghs(topo);
  EXPECT_TRUE(result.tree.empty());
  EXPECT_EQ(result.fragments, 2u);
  EXPECT_EQ(result.totals.messages(), 0u);
}

TEST(ClassicGhs, PathGraph) {
  // Collinear points: forced chain merges exercise absorb logic.
  std::vector<geometry::Point2> points;
  for (int i = 0; i < 10; ++i)
    points.push_back({0.05 + 0.1 * static_cast<double>(i), 0.5});
  const sim::Topology topo(std::move(points), 0.11);  // only adjacent in range
  const sim::RunResult result = run_classic_ghs(topo);
  EXPECT_EQ(result.tree.size(), 9u);
  EXPECT_EQ(result.fragments, 1u);
}

class ClassicGhsExactness
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(ClassicGhsExactness, MatchesKruskalEdgeForEdge) {
  const auto [n, seed, factor] = GetParam();
  const double radius = rgg::connectivity_radius(static_cast<std::size_t>(n),
                                                 factor);
  const sim::Topology topo =
      make_topology(static_cast<std::size_t>(n), radius,
                    static_cast<std::uint64_t>(seed) * 7 + 3);
  const sim::RunResult result = run_classic_ghs(topo);
  const auto reference = graph::kruskal_msf(topo.node_count(), topo.graph().edges());
  EXPECT_TRUE(graph::same_edge_set(result.tree, reference))
      << "n=" << n << " seed=" << seed << " factor=" << factor;
  EXPECT_TRUE(graph::is_forest(topo.node_count(), result.tree));
}

INSTANTIATE_TEST_SUITE_P(
    ConnectivityRegime, ClassicGhsExactness,
    ::testing::Combine(::testing::Values(10, 50, 200, 800),
                       ::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1.6)));

INSTANTIATE_TEST_SUITE_P(
    SparseDisconnected, ClassicGhsExactness,
    ::testing::Combine(::testing::Values(100, 500),
                       ::testing::Values(6, 7, 8),
                       ::testing::Values(0.7, 1.0)));

TEST(ClassicGhs, RadiusRestrictionHonored) {
  // Running at a smaller radius must yield the MSF of the restricted graph
  // and never use a longer edge.
  const std::size_t n = 300;
  const double r_full = rgg::connectivity_radius(n, 1.6);
  const double r_small = rgg::percolation_radius(n, 1.4);
  const sim::Topology topo = make_topology(n, r_full, 11);
  ClassicGhsOptions options;
  options.radius = r_small;
  const sim::RunResult result = run_classic_ghs(topo, {}, options);
  for (const graph::Edge& e : result.tree) EXPECT_LE(e.w, r_small);
  // Reference: Kruskal over only the short edges.
  std::vector<graph::Edge> short_edges;
  for (const graph::Edge& e : topo.graph().edges()) {
    if (e.w <= r_small) short_edges.push_back(e);
  }
  const auto reference = graph::kruskal_msf(n, short_edges);
  EXPECT_TRUE(graph::same_edge_set(result.tree, reference));
}

TEST(ClassicGhs, MessageComplexityWithinClassicBound) {
  // GHS sends at most 5n·log₂n + 2|E| messages (1983 paper). Check with
  // slack on a mid-size instance.
  const std::size_t n = 1000;
  const sim::Topology topo = make_topology(n, rgg::connectivity_radius(n), 13);
  const sim::RunResult result = run_classic_ghs(topo);
  const double e = static_cast<double>(topo.graph().edge_count());
  const double bound = 5.0 * n * std::log2(static_cast<double>(n)) + 2.0 * e;
  EXPECT_LT(static_cast<double>(result.totals.messages()), bound);
  EXPECT_GT(result.totals.messages(), n);  // must at least talk to everyone
}

TEST(ClassicGhs, LevelsAreLogarithmic) {
  const std::size_t n = 1000;
  const sim::Topology topo = make_topology(n, rgg::connectivity_radius(n), 17);
  const sim::RunResult result = run_classic_ghs(topo);
  EXPECT_GE(result.phases, 1u);
  EXPECT_LE(result.phases, static_cast<std::size_t>(std::log2(n)) + 1);
}

TEST(ClassicGhs, EnergyEqualsSumOverMessages) {
  // Energy must equal Σ d² over all unicasts — for GHS every message goes
  // over an edge, so energy ≤ messages · r². Check both bounds.
  const std::size_t n = 400;
  const double r = rgg::connectivity_radius(n);
  const sim::Topology topo = make_topology(n, r, 19);
  const sim::RunResult result = run_classic_ghs(topo);
  EXPECT_LE(result.totals.energy,
            static_cast<double>(result.totals.messages()) * r * r + 1e-9);
  EXPECT_GT(result.totals.energy, 0.0);
  EXPECT_EQ(result.totals.broadcasts, 0u);  // classic GHS is unicast-only
}

class CachedConfirmExactness
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CachedConfirmExactness, ModifiedGhsMatchesKruskal) {
  const auto [n, seed] = GetParam();
  const sim::Topology topo =
      make_topology(static_cast<std::size_t>(n),
                    rgg::connectivity_radius(static_cast<std::size_t>(n)),
                    static_cast<std::uint64_t>(seed) * 53 + 29);
  ClassicGhsOptions options;
  options.moe = MoeStrategy::kCachedConfirm;
  const sim::RunResult result = run_classic_ghs(topo, {}, options);
  const auto reference =
      graph::kruskal_msf(topo.node_count(), topo.graph().edges());
  EXPECT_TRUE(graph::same_edge_set(result.tree, reference))
      << "n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CachedConfirmExactness,
    ::testing::Combine(::testing::Values(20, 200, 800),
                       ::testing::Values(1, 2, 3, 4)));

TEST(CachedConfirm, ExactUnderAsynchronousDelays) {
  // The cached variant must inherit classic GHS's asynchrony safety: the
  // confirm-TEST keeps the level machinery in the loop.
  const sim::Topology topo = make_topology(400, rgg::connectivity_radius(400), 31);
  const auto reference =
      graph::kruskal_msf(topo.node_count(), topo.graph().edges());
  for (std::uint64_t delay_seed = 1; delay_seed <= 4; ++delay_seed) {
    ClassicGhsOptions options;
    options.moe = MoeStrategy::kCachedConfirm;
    options.delays.max_extra_delay = 5;
    options.delays.seed = delay_seed;
    const sim::RunResult result = run_classic_ghs(topo, {}, options);
    EXPECT_TRUE(graph::same_edge_set(result.tree, reference))
        << "delay seed " << delay_seed;
  }
}

TEST(CachedConfirm, SavesTestTraffic) {
  // Unicast count (tests/rejects) must drop; announcements appear as
  // broadcasts instead.
  const sim::Topology topo =
      make_topology(1500, rgg::connectivity_radius(1500), 37);
  const sim::RunResult plain = run_classic_ghs(topo);
  ClassicGhsOptions options;
  options.moe = MoeStrategy::kCachedConfirm;
  const sim::RunResult cached = run_classic_ghs(topo, {}, options);
  EXPECT_TRUE(graph::same_edge_set(plain.tree, cached.tree));
  EXPECT_GT(cached.totals.broadcasts, 0u);
  EXPECT_LT(cached.totals.unicasts, plain.totals.unicasts);
}

TEST(ClassicGhs, RunsOnExplicitGabrielTopology) {
  // Classic GHS over a logical (Gabriel) topology: the MSF of the Gabriel
  // subgraph equals the full MST (EMST ⊆ GG), with far fewer test messages.
  support::Rng rng(47);
  const auto points = geometry::uniform_points(600, rng);
  const double r = rgg::connectivity_radius(600);
  const sim::Topology disk(points, r);
  const auto gabriel_edges =
      graph::gabriel_filter(points, disk.graph().edges());
  const sim::Topology gabriel(points, r, gabriel_edges);
  const sim::RunResult on_gabriel = run_classic_ghs(gabriel);
  const sim::RunResult on_disk = run_classic_ghs(disk);
  EXPECT_TRUE(graph::same_edge_set(on_gabriel.tree, on_disk.tree));
  EXPECT_LT(on_gabriel.totals.messages(), on_disk.totals.messages());
  EXPECT_LT(on_gabriel.totals.energy, on_disk.totals.energy);
}

TEST(ClassicGhs, PerNodeLedgerSumsToTotal) {
  const sim::Topology topo = make_topology(400, rgg::connectivity_radius(400), 51);
  sim::RunConfig cfg;
  cfg.track_per_node_energy = true;
  const sim::RunResult result = run_classic_ghs(topo, cfg);
  ASSERT_EQ(result.per_node_energy.size(), topo.node_count());
  double total = 0.0;
  for (const double e : result.per_node_energy) total += e;
  EXPECT_NEAR(total, result.totals.energy, 1e-9);
}

TEST(ClassicGhs, BreakdownAccountsForEveryMessage) {
  const std::size_t n = 800;
  const sim::Topology topo = make_topology(n, rgg::connectivity_radius(n), 41);
  sim::RunConfig cfg;
  cfg.record_breakdown = true;
  const sim::RunResult result = run_classic_ghs(topo, cfg);
  ASSERT_TRUE(result.breakdown_recorded);
  std::uint64_t count = 0;
  double energy = 0.0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(GhsMsgType::kTypeCount);
       ++t) {
    const auto& cell = type_cell(result, static_cast<GhsMsgType>(t));
    count += cell.messages;
    energy += cell.energy;
  }
  EXPECT_EQ(count, result.totals.messages());
  EXPECT_NEAR(energy, result.totals.energy, 1e-9);
  // The classical structure: TEST/ACCEPT/REJECT (Θ(|E|)-scale discovery)
  // dominates INITIATE/REPORT (Θ(n log n) control) on dense RGGs.
  const auto count_of = [&result](GhsMsgType type) {
    return type_cell(result, type).messages;
  };
  const std::uint64_t discovery = count_of(GhsMsgType::kTest) +
                                  count_of(GhsMsgType::kAccept) +
                                  count_of(GhsMsgType::kReject);
  const std::uint64_t control =
      count_of(GhsMsgType::kInitiate) + count_of(GhsMsgType::kReport);
  EXPECT_GT(discovery, control);
  EXPECT_GT(count_of(GhsMsgType::kConnect), 0u);
  EXPECT_EQ(count_of(GhsMsgType::kAnnounce), 0u);
}

TEST(ClassicGhs, CachedBreakdownShiftsTrafficToAnnouncements) {
  const std::size_t n = 800;
  const sim::Topology topo = make_topology(n, rgg::connectivity_radius(n), 43);
  sim::RunConfig cfg;
  cfg.record_breakdown = true;
  const sim::RunResult plain = run_classic_ghs(topo, cfg);
  ClassicGhsOptions options;
  options.moe = MoeStrategy::kCachedConfirm;
  const sim::RunResult cached = run_classic_ghs(topo, cfg, options);
  EXPECT_GT(type_cell(cached, GhsMsgType::kAnnounce).messages, 0u);
  EXPECT_LT(type_cell(cached, GhsMsgType::kReject).messages,
            type_cell(plain, GhsMsgType::kReject).messages);
  EXPECT_LT(type_cell(cached, GhsMsgType::kTest).messages,
            type_cell(plain, GhsMsgType::kTest).messages);
}

TEST(ClassicGhs, DeterministicAcrossRuns) {
  const std::size_t n = 300;
  const sim::Topology topo = make_topology(n, rgg::connectivity_radius(n), 23);
  const sim::RunResult a = run_classic_ghs(topo);
  const sim::RunResult b = run_classic_ghs(topo);
  EXPECT_TRUE(graph::same_edge_set(a.tree, b.tree));
  EXPECT_DOUBLE_EQ(a.totals.energy, b.totals.energy);
  EXPECT_EQ(a.totals.messages(), b.totals.messages());
  EXPECT_EQ(a.totals.rounds, b.totals.rounds);
}

}  // namespace
}  // namespace emst::ghs
