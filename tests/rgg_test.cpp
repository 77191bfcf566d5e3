// Tests for random geometric graph construction, radius helpers, component
// labelling, and the exact Euclidean MST helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <tuple>
#include <vector>

#include "emst/geometry/sampling.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/rgg/components.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/support/rng.hpp"

namespace emst::rgg {
namespace {

std::vector<graph::Edge> brute_edges(const std::vector<geometry::Point2>& points,
                                     double radius) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId u = 0; u < points.size(); ++u) {
    for (graph::NodeId v = u + 1; v < points.size(); ++v) {
      const double d = geometry::distance(points[u], points[v]);
      if (d <= radius) edges.push_back({u, v, d});
    }
  }
  graph::sort_edges(edges);
  return edges;
}

TEST(Radii, Formulas) {
  EXPECT_NEAR(connectivity_radius(1000, 1.6),
              1.6 * std::sqrt(std::log(1000.0) / 1000.0), 1e-12);
  EXPECT_NEAR(percolation_radius(1000, 1.4), 1.4 * std::sqrt(1.0 / 1000.0), 1e-12);
  const double ln = std::log(1000.0);
  EXPECT_NEAR(giant_threshold(1000, 2.0), 2.0 * ln * ln, 1e-12);
  // Connectivity radius shrinks with n but slower than the percolation one.
  EXPECT_GT(connectivity_radius(10000), percolation_radius(10000));
  EXPECT_LT(connectivity_radius(10000), connectivity_radius(100));
}

/// n uniform points drawn from `seed`, or (lattice) n of the 65 × 65 points
/// k/64 of the unit square with scrambled ids: exact coordinates, many
/// exactly tied distances, and rows and columns on the cell boundaries of
/// any grid whose side divides 64 (r = 0.25 gives side 4).
struct RggCase {
  int n = 0;
  double radius = 0.0;
  int seed = 0;
  bool lattice = false;
};

// A uniform case prints as the (n, radius, seed) tuple it once was.
void PrintTo(const RggCase& c, std::ostream* os) {
  if (c.lattice) {
    *os << "(lattice, " << c.n << ", " << c.radius << ")";
  } else {
    *os << ::testing::PrintToString(std::make_tuple(c.n, c.radius, c.seed));
  }
}

std::vector<geometry::Point2> case_points(const RggCase& c) {
  const auto n = static_cast<std::size_t>(c.n);
  if (!c.lattice) {
    support::Rng rng(static_cast<std::uint64_t>(c.seed) * 104729 + 7);
    return geometry::uniform_points(n, rng);
  }
  std::vector<geometry::Point2> points;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cell = i * 1237 % (65 * 65);
    points.push_back({static_cast<double>(cell % 65) / 64.0,
                      static_cast<double>(cell / 65) / 64.0});
  }
  return points;
}

class RggVsBrute : public ::testing::TestWithParam<RggCase> {};

TEST_P(RggVsBrute, EdgesMatchBruteForce) {
  const RggCase& c = GetParam();
  const auto points = case_points(c);
  const auto got = geometric_edges(points, c.radius);
  const auto want = brute_edges(points, c.radius);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u, want[i].u);
    EXPECT_EQ(got[i].v, want[i].v);
    EXPECT_EQ(got[i].w, want[i].w);  // bitwise: the same distance_sq, rooted
  }
}

std::vector<RggCase> sweep_cases() {
  std::vector<RggCase> cases;
  for (const int n : {2, 25, 200}) {
    for (const double radius : {0.05, 0.2, 0.8}) {
      for (const int seed : {1, 2}) cases.push_back({n, radius, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RggVsBrute, ::testing::ValuesIn(sweep_cases()));

// Radii whose reciprocal is an integer give cells of side exactly r, and
// r = 1.5 exceeds the square's side.
INSTANTIATE_TEST_SUITE_P(
    Boundaries, RggVsBrute,
    ::testing::Values(RggCase{3000, 0.25, 0, true}, RggCase{3000, 0.1, 0, true},
                      RggCase{3000, 0.25, 3}, RggCase{3000, 0.1, 3},
                      RggCase{600, 1.5, 0, true}, RggCase{200, 1.5, 3}));

TEST(Rgg, EdgeWeightsAreDistances) {
  support::Rng rng(83);
  const auto instance = random_rgg(100, 0.3, rng);
  for (const graph::Edge& e : instance.graph.edges()) {
    EXPECT_NEAR(e.w,
                geometry::distance(instance.points[e.u], instance.points[e.v]),
                1e-12);
    EXPECT_LE(e.w, 0.3);
  }
}

TEST(Rgg, ConnectedAtConnectivityRadius) {
  // Thm 5.1: r = 1.6·√(ln n / n) connects the graph WHP. Statistical test
  // over fixed seeds at n = 1000: all instances should connect.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    support::Rng rng(seed);
    const auto instance = random_rgg(1000, connectivity_radius(1000), rng);
    EXPECT_TRUE(is_connected(instance.graph)) << "seed " << seed;
  }
}

TEST(Rgg, FragmentedAtPercolationRadius) {
  // At r = 1.4·√(1/n) the graph percolates but is not connected: expect a
  // dominant component plus many stragglers.
  support::Rng rng(89);
  const auto instance = random_rgg(2000, percolation_radius(2000), rng);
  const Components comps = connected_components(instance.graph);
  EXPECT_GT(comps.count, 10u);
  EXPECT_GT(comps.giant_size(), 500u);
}

TEST(Components, HandSizedExample) {
  // Two triangles, one isolated vertex.
  std::vector<graph::Edge> edges = {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0},
                                    {3, 4, 1.0}, {4, 5, 1.0}};
  const graph::AdjacencyList g(7, edges);
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.count, 3u);
  EXPECT_EQ(comps.giant_size(), 3u);
  EXPECT_EQ(comps.second_size(), 3u);
  EXPECT_EQ(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[0], comps.label[3]);
  EXPECT_EQ(comps.sizes[comps.label[6]], 1u);
}

TEST(Components, SecondSizeOfSingleComponent) {
  const graph::AdjacencyList g(2, {{0, 1, 1.0}});
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.count, 1u);
  EXPECT_EQ(comps.second_size(), 0u);
  EXPECT_TRUE(is_connected(g));
}

TEST(EuclideanMst, MatchesCompleteGraphKruskal) {
  support::Rng rng(97);
  for (int trial = 0; trial < 5; ++trial) {
    const auto points = geometry::uniform_points(80, rng);
    const auto fast = euclidean_mst(points);
    // Reference: Kruskal over ALL pairs.
    const auto all = brute_edges(points, 2.0);
    const auto exact = graph::kruskal_msf(points.size(), all);
    EXPECT_TRUE(graph::same_edge_set(fast, exact));
    EXPECT_TRUE(graph::is_spanning_tree(points.size(), fast));
  }
}

TEST(EuclideanMst, DegenerateSizes) {
  EXPECT_TRUE(euclidean_mst({}).empty());
  EXPECT_TRUE(euclidean_mst({{0.5, 0.5}}).empty());
  const auto two = euclidean_mst({{0.1, 0.1}, {0.9, 0.9}});
  ASSERT_EQ(two.size(), 1u);
  EXPECT_NEAR(two[0].w, std::sqrt(2.0) * 0.8, 1e-12);
}

TEST(EuclideanMst, CostScalesAsSqrtN) {
  // Steele: E[Σ|e|] = Θ(√n). Check the ratio between n=400 and n=1600 is
  // near 2 (= √4).
  support::Rng rng(101);
  auto cost = [&](std::size_t n) {
    double total = 0.0;
    for (int t = 0; t < 5; ++t) {
      const auto points = geometry::uniform_points(n, rng);
      total += graph::tree_cost(points, euclidean_mst(points), 1.0);
    }
    return total / 5.0;
  };
  const double ratio = cost(1600) / cost(400);
  EXPECT_NEAR(ratio, 2.0, 0.25);
}

}  // namespace
}  // namespace emst::rgg
