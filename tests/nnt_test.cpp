// Tests for the Co-NNT module: ranking order, potential geometry (Lemmas
// 6.1–6.3), protocol exactness against brute force, spanning-tree validity,
// approximation quality (Thm 6.1), and energy scaling (Thm 6.2).
#include <gtest/gtest.h>

#include <cmath>

#include "emst/geometry/sampling.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/support/rng.hpp"

namespace emst::nnt {
namespace {

sim::Topology make_topology(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::Topology(geometry::uniform_points(n, rng),
                       rgg::connectivity_radius(std::max<std::size_t>(n, 2)));
}

TEST(Rank, DiagonalOrderMatchesDefinition) {
  const std::vector<geometry::Point2> pts = {
      {0.2, 0.1},   // s=0.3
      {0.1, 0.3},   // s=0.4
      {0.3, 0.1},   // s=0.4, lower y than node 1? y=0.1 < 0.3 → lower rank
  };
  EXPECT_TRUE(rank_less(RankScheme::kDiagonal, pts, 0, 1));
  EXPECT_TRUE(rank_less(RankScheme::kDiagonal, pts, 2, 1));  // same s, smaller y
  EXPECT_FALSE(rank_less(RankScheme::kDiagonal, pts, 1, 2));
}

TEST(Rank, AxisOrderMatchesDefinition) {
  const std::vector<geometry::Point2> pts = {{0.2, 0.9}, {0.3, 0.1}, {0.2, 0.95}};
  EXPECT_TRUE(rank_less(RankScheme::kAxis, pts, 0, 1));   // x smaller
  EXPECT_TRUE(rank_less(RankScheme::kAxis, pts, 0, 2));   // x tie, y smaller
  EXPECT_FALSE(rank_less(RankScheme::kAxis, pts, 1, 0));
}

TEST(Rank, StrictTotalOrder) {
  support::Rng rng(211);
  const auto pts = geometry::uniform_points(100, rng);
  for (graph::NodeId u = 0; u < 100; ++u) {
    EXPECT_FALSE(rank_less(RankScheme::kDiagonal, pts, u, u));
    for (graph::NodeId v = 0; v < 100; ++v) {
      if (u == v) continue;
      EXPECT_NE(rank_less(RankScheme::kDiagonal, pts, u, v),
                rank_less(RankScheme::kDiagonal, pts, v, u));
    }
  }
}

TEST(PotentialDistance, CornersAndCenter) {
  // Bottom-left corner: everything is higher-ranked; farthest point is (1,1).
  EXPECT_NEAR(potential_distance(RankScheme::kDiagonal, {0.0, 0.0}),
              std::sqrt(2.0), 1e-12);
  // Top-right corner: potential region collapses.
  EXPECT_NEAR(potential_distance(RankScheme::kDiagonal, {1.0, 1.0}), 0.0, 1e-12);
  // Center: farthest higher-diagonal point is corner (1,0) or (0,1).
  const double lc = potential_distance(RankScheme::kDiagonal, {0.5, 0.5});
  EXPECT_NEAR(lc, std::sqrt(0.25 + 0.25), 1e-12);
}

TEST(PotentialDistance, BoundsDistanceToHigherRankNodes) {
  // Property: every higher-ranked node lies within L_u of u.
  support::Rng rng(223);
  const auto pts = geometry::uniform_points(300, rng);
  for (graph::NodeId u = 0; u < 300; u += 7) {
    const double lu = potential_distance(RankScheme::kDiagonal, pts[u]);
    for (graph::NodeId v = 0; v < 300; ++v) {
      if (v == u || !rank_less(RankScheme::kDiagonal, pts, u, v)) continue;
      EXPECT_LE(geometry::distance(pts[u], pts[v]), lu + 1e-9);
    }
  }
}

TEST(PotentialAngle, Lemma61LowerBound) {
  // Lemma 6.1: α_u ≥ ½ radian for every u in the unit square.
  support::Rng rng(227);
  for (int i = 0; i < 2000; ++i) {
    const geometry::Point2 u{rng.uniform(), rng.uniform()};
    EXPECT_GE(potential_angle(u), 0.5 - 1e-9)
        << "u=(" << u.x << "," << u.y << ")";
  }
  // And at hand-picked extremes.
  EXPECT_GE(potential_angle({0.0, 0.0}), 0.5);
  EXPECT_GE(potential_angle({0.99, 0.99}), 0.5);
  EXPECT_GE(potential_angle({0.0, 0.99}), 0.5);
}

TEST(PotentialAngle, Lemma62ExpectedSquaredDistanceBound) {
  // Lemma 6.2: E[d²_u] ≤ 2/(n·α_u). Monte-Carlo over fresh deployments for a
  // few fixed probe locations u and check the sample mean against the bound
  // (with slack for sampling noise).
  support::Rng rng(3001);
  const std::size_t n = 400;
  const std::vector<geometry::Point2> probes = {
      {0.1, 0.1}, {0.5, 0.5}, {0.9, 0.2}, {0.7, 0.9}};
  for (const geometry::Point2 u : probes) {
    const double alpha_u = potential_angle(u);
    ASSERT_GE(alpha_u, 0.5);
    double sum_d_sq = 0.0;
    constexpr int kTrials = 400;
    for (int t = 0; t < kTrials; ++t) {
      auto pts = geometry::uniform_points(n - 1, rng);
      pts.push_back(u);
      const auto id = static_cast<graph::NodeId>(pts.size() - 1);
      const graph::NodeId parent =
          brute_force_parent(RankScheme::kDiagonal, pts, id);
      if (parent == graph::kNoNode) continue;  // u happened to be top-ranked
      sum_d_sq += geometry::distance_sq(pts[id], pts[parent]);
    }
    const double mean = sum_d_sq / kTrials;
    const double bound = 2.0 / (static_cast<double>(n) * alpha_u);
    EXPECT_LE(mean, bound * 1.25) << "u=(" << u.x << "," << u.y << ")";
  }
}

class CoNntExactness : public ::testing::TestWithParam<std::tuple<int, int, RankScheme>> {};

TEST_P(CoNntExactness, ParentsMatchBruteForce) {
  const auto [n, seed, scheme] = GetParam();
  const sim::Topology topo = make_topology(static_cast<std::size_t>(n),
                                           static_cast<std::uint64_t>(seed) * 67);
  CoNntOptions options;
  options.scheme = scheme;
  const CoNntResult result = run_connt(topo, {}, options);
  const auto pts = std::span<const geometry::Point2>(topo.points());
  std::size_t roots = 0;
  for (graph::NodeId u = 0; u < topo.node_count(); ++u) {
    const graph::NodeId expected = brute_force_parent(scheme, pts, u);
    EXPECT_EQ(result.parent[u], expected) << "node " << u;
    if (result.parent[u] == graph::kNoNode) ++roots;
  }
  EXPECT_EQ(roots, 1u);  // exactly the top-ranked node
  EXPECT_TRUE(graph::is_spanning_tree(topo.node_count(), result.tree));
}

INSTANTIATE_TEST_SUITE_P(
    SizesSeedsSchemes, CoNntExactness,
    ::testing::Combine(::testing::Values(2, 10, 100, 600),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(RankScheme::kDiagonal,
                                         RankScheme::kAxis)));

TEST(CoNnt, ConstantFactorApproximation) {
  // Thm 6.1: E[Σ|e|²] ≤ 4 for NNT and Θ(1) for MST; Σ|e| ratio is O(1).
  support::Rng rng(229);
  for (const std::size_t n : {500u, 2000u}) {
    const auto points = geometry::uniform_points(n, rng);
    const sim::Topology topo(points, rgg::connectivity_radius(n));
    const CoNntResult result = run_connt(topo);
    const auto mst = rgg::euclidean_mst(points);
    const double nnt_len = graph::tree_cost(points, result.tree, 1.0);
    const double mst_len = graph::tree_cost(points, mst, 1.0);
    const double nnt_sq = graph::tree_cost(points, result.tree, 2.0);
    const double mst_sq = graph::tree_cost(points, mst, 2.0);
    EXPECT_LT(nnt_len / mst_len, 2.0);    // paper measures ≈ 1.1
    EXPECT_LT(nnt_sq / mst_sq, 4.0);      // paper measures ≈ 1.3
    EXPECT_LT(nnt_sq, 4.0);               // Thm 6.1 absolute bound (expected)
    EXPECT_GE(nnt_len, mst_len - 1e-9);   // MST is optimal
  }
}

TEST(CoNnt, EnergyIsConstantInN) {
  // Thm 6.2: expected energy O(1). Compare n=500 and n=8000: energy must not
  // grow with n beyond noise.
  auto mean_energy = [&](std::size_t n) {
    double total = 0.0;
    constexpr int kTrials = 10;
    for (int t = 0; t < kTrials; ++t) {
      const sim::Topology topo = make_topology(n, 1000 + n + t);
      total += run_connt(topo).totals.energy;
    }
    return total / kTrials;
  };
  const double small = mean_energy(500);
  const double large = mean_energy(8000);
  EXPECT_LT(large, 3.0 * small + 1.0);
}

TEST(CoNnt, MessagesLinearInN) {
  // Thm 6.2: O(n) messages. Measure messages/n at two sizes.
  const sim::Topology a = make_topology(1000, 233);
  const sim::Topology b = make_topology(4000, 239);
  const double per_node_a =
      static_cast<double>(run_connt(a).totals.messages()) / 1000.0;
  const double per_node_b =
      static_cast<double>(run_connt(b).totals.messages()) / 4000.0;
  EXPECT_LT(per_node_b, 2.0 * per_node_a + 2.0);
  EXPECT_GE(per_node_a, 1.0);  // everyone sends at least a request
}

TEST(CoNnt, ConnectDistancesWithinLemma63Bound) {
  // Lemma 6.3: all NNT edges are ≤ c·√(log n / n) WHP; with c = 4 this
  // holds with huge margin on fixed seeds.
  const std::size_t n = 3000;
  const sim::Topology topo = make_topology(n, 241);
  const CoNntResult result = run_connt(topo);
  EXPECT_LE(result.max_connect_distance,
            4.0 * std::sqrt(std::log(n) / static_cast<double>(n)));
}

TEST(CoNnt, RobustToNEstimateError) {
  // The protocol only needs a Θ(n) estimate of n (Thm 6.2).
  const sim::Topology topo = make_topology(500, 251);
  for (const double factor : {0.25, 0.5, 2.0, 4.0}) {
    CoNntOptions options;
    options.n_estimate_factor = factor;
    const CoNntResult result = run_connt(topo, {}, options);
    EXPECT_TRUE(graph::is_spanning_tree(topo.node_count(), result.tree))
        << "factor " << factor;
  }
}

TEST(CoNnt, SingleNode) {
  const sim::Topology topo({{0.5, 0.5}, {0.6, 0.6}}, 0.5);
  const CoNntResult result = run_connt(topo);
  EXPECT_EQ(result.tree.size(), 1u);
}

class ActorVsChoreographed
    : public ::testing::TestWithParam<std::tuple<int, int, RankScheme>> {};

TEST_P(ActorVsChoreographed, IdenticalResultsAndAccounting) {
  // The message-driven actor execution over Network<Msg> must agree with
  // the choreographed driver on EVERYTHING: parents, tree, energy, message
  // counts, and rounds — the strongest cross-validation of the accounting.
  const auto [n, seed, scheme] = GetParam();
  const sim::Topology topo = make_topology(static_cast<std::size_t>(n),
                                           static_cast<std::uint64_t>(seed) * 97);
  CoNntOptions options;
  options.scheme = scheme;
  const CoNntResult a = run_connt(topo, {}, options);
  const CoNntResult b = run_connt_actor(topo, {}, options);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_TRUE(graph::same_edge_set(a.tree, b.tree));
  EXPECT_NEAR(a.totals.energy, b.totals.energy, 1e-9);
  EXPECT_EQ(a.totals.unicasts, b.totals.unicasts);
  EXPECT_EQ(a.totals.broadcasts, b.totals.broadcasts);
  EXPECT_EQ(a.totals.deliveries, b.totals.deliveries);
  EXPECT_EQ(a.totals.rounds, b.totals.rounds);
  EXPECT_EQ(a.phases, b.phases);
}

INSTANTIATE_TEST_SUITE_P(
    CrossValidation, ActorVsChoreographed,
    ::testing::Combine(::testing::Values(2, 50, 400, 1200),
                       ::testing::Values(1, 2),
                       ::testing::Values(RankScheme::kDiagonal,
                                         RankScheme::kAxis)));

TEST(CoNnt, AxisSchemeUsesMoreEnergyNearRightEdge) {
  // The paper's motivation for the diagonal ranking: the axis scheme's
  // rightmost nodes probe far. Aggregate energy should be ≥ the diagonal
  // scheme's on identical instances (statistically, fixed seeds).
  double diag = 0.0;
  double axis = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sim::Topology topo = make_topology(2000, seed * 883);
    CoNntOptions d;
    d.scheme = RankScheme::kDiagonal;
    CoNntOptions a;
    a.scheme = RankScheme::kAxis;
    diag += run_connt(topo, {}, d).totals.energy;
    axis += run_connt(topo, {}, a).totals.energy;
  }
  EXPECT_GT(axis, diag);
}

}  // namespace
}  // namespace emst::nnt
