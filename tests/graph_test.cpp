// Tests for union-find, CSR adjacency, the sequential MST algorithms, and
// tree utilities. The MST cross-checks (Kruskal == Prim == Borůvka on random
// geometric and random dense graphs) are the ground-truth anchor for every
// distributed algorithm in the repository.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "emst/geometry/deployments.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/graph/adjacency.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/graph/union_find.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/support/rng.hpp"

namespace emst::graph {
namespace {

TEST(UnionFind, Basics) {
  UnionFind dsu(5);
  EXPECT_EQ(dsu.components(), 5u);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));
  EXPECT_TRUE(dsu.connected(0, 1));
  EXPECT_FALSE(dsu.connected(0, 2));
  EXPECT_EQ(dsu.components(), 4u);
  EXPECT_EQ(dsu.size_of(0), 2u);
  EXPECT_EQ(dsu.size_of(2), 1u);
}

TEST(UnionFind, ChainCollapsesToOneComponent) {
  constexpr std::size_t kN = 1000;
  UnionFind dsu(kN);
  for (NodeId i = 0; i + 1 < kN; ++i) dsu.unite(i, i + 1);
  EXPECT_EQ(dsu.components(), 1u);
  EXPECT_EQ(dsu.size_of(0), kN);
  EXPECT_EQ(dsu.find(0), dsu.find(kN - 1));
}

TEST(Edge, CanonicalAndOrder) {
  const Edge e{5, 2, 1.0};
  const Edge c = e.canonical();
  EXPECT_EQ(c.u, 2u);
  EXPECT_EQ(c.v, 5u);
  EXPECT_TRUE(edge_less({0, 1, 1.0}, {0, 2, 2.0}));
  EXPECT_TRUE(edge_less({0, 1, 1.0}, {0, 2, 1.0}));   // tie: endpoint order
  EXPECT_TRUE(edge_less({0, 1, 1.0}, {1, 0, 2.0}));
  EXPECT_FALSE(edge_less({0, 1, 1.0}, {1, 0, 1.0}));  // identical canonical
  EXPECT_EQ((Edge{0, 1, 1.0}), (Edge{1, 0, 9.0}));    // equality ignores w
}

TEST(Adjacency, StructureAndSymmetry) {
  const std::vector<Edge> edges = {{0, 1, 2.0}, {1, 2, 1.0}, {0, 2, 3.0}};
  const AdjacencyList g(3, edges);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  // Neighbors sorted by weight.
  const auto n1 = g.neighbors(1);
  ASSERT_EQ(n1.size(), 2u);
  EXPECT_EQ(n1[0].id, 2u);
  EXPECT_DOUBLE_EQ(n1[0].w, 1.0);
  EXPECT_EQ(n1[1].id, 0u);
  // edge_index is shared between both directions.
  const auto n2 = g.neighbors(2);
  EXPECT_EQ(n1[0].edge_index, n2[0].edge_index);
  EXPECT_DOUBLE_EQ(g.edge_weight(n1[0].edge_index), 1.0);
  // Every entry's twin is the same link seen from the other end: the owner,
  // with the same weight and edge_index. Checked here and on a random
  // geometric graph, whose rows are long and interleave many edges.
  support::Rng rng(61);
  const auto points = geometry::uniform_points(300, rng);
  const AdjacencyList rgg_graph(points.size(),
                                rgg::geometric_edges(points, 0.12));
  for (const AdjacencyList* graph : {&g, &rgg_graph}) {
    for (NodeId u = 0; u < graph->node_count(); ++u) {
      const auto own = graph->neighbors(u);
      for (std::uint32_t j = 0; j < own.size(); ++j) {
        const auto row = graph->neighbors(own[j].id);
        ASSERT_LT(own[j].twin, row.size()) << u << "->" << own[j].id;
        const Neighbor& twin = row[own[j].twin];
        EXPECT_EQ(twin.id, u);
        EXPECT_EQ(twin.w, own[j].w);  // bitwise: one edge, one weight
        EXPECT_EQ(twin.edge_index, own[j].edge_index);
        EXPECT_EQ(twin.twin, j);
      }
    }
  }
}

TEST(Adjacency, EmptyGraph) {
  const AdjacencyList g(4, {});
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

// 3000 of the 65 × 65 points k/64 of the unit square, ids scrambled: exact
// coordinates, so many edge weights tie exactly and the ids decide.
std::vector<geometry::Point2> lattice_points() {
  std::vector<geometry::Point2> points;
  for (std::size_t i = 0; i < 3000; ++i) {
    const std::size_t cell = i * 1237 % (65 * 65);
    points.push_back({static_cast<double>(cell % 65) / 64.0,
                      static_cast<double>(cell / 65) / 64.0});
  }
  return points;
}

TEST(SortEdges, MatchesTheComparisonSort) {
  support::Rng rng(71);
  std::vector<std::pair<const char*, std::vector<Edge>>> inputs;
  const auto uniform = geometry::uniform_points(5000, rng);
  const auto uniform_edges =
      rgg::geometric_edges_unsorted(uniform, rgg::connectivity_radius(5000));
  inputs.emplace_back("uniform rgg", uniform_edges);
  const auto clustered = geometry::sample_deployment(
      geometry::Deployment::kClustered, 3000, rng);
  inputs.emplace_back("clustered rgg", rgg::geometric_edges_unsorted(
                                           clustered, rgg::connectivity_radius(3000)));
  inputs.emplace_back("lattice", rgg::geometric_edges_unsorted(lattice_points(), 0.1));
  std::vector<Edge> equal;
  for (NodeId u = 0; u < 60; ++u) {
    for (NodeId v = u + 1; v < 60; ++v) equal.push_back({u, v, 0.375});
  }
  inputs.emplace_back("all-equal weights", equal);
  std::vector<geometry::Point2> coincident(40, geometry::Point2{0.5, 0.5});
  inputs.emplace_back("all zero weights", rgg::geometric_edges_unsorted(coincident, 0.1));
  for (std::size_t i = 0; i < 300; ++i) {
    coincident.push_back({rng.uniform(), rng.uniform()});
  }
  inputs.emplace_back("some zero weights",
                      rgg::geometric_edges_unsorted(coincident, 0.2));
  std::vector<Edge> flipped = uniform_edges;
  for (Edge& e : flipped) std::swap(e.u, e.v);
  inputs.emplace_back("edges as (v, u)", flipped);
  inputs.emplace_back("mst", kruskal_msf(uniform.size(), uniform_edges));
  // Far from the unit square: w_max² underflows, and overflows to infinity.
  std::vector<Edge> tiny;
  std::vector<Edge> huge;
  for (NodeId u = 0; u < 200; ++u) {
    tiny.push_back({u, u + 1, std::ldexp(rng.uniform(), -600)});
    huge.push_back({u, u + 1, std::ldexp(1.0 + rng.uniform(), 300 + 2 * static_cast<int>(u))});
  }
  huge.push_back({7, 300, std::numeric_limits<double>::infinity()});
  inputs.emplace_back("w_max² underflows", tiny);
  inputs.emplace_back("w_max² overflows", huge);
  for (std::size_t size = 0; size <= 5; ++size) {
    std::vector<Edge> small;
    for (NodeId u = 0; u < size; ++u) {
      small.push_back({u, static_cast<NodeId>(u + 1 + rng.uniform_int(4)),
                       u % 2 == 0 ? 0.5 : rng.uniform()});
    }
    inputs.emplace_back("small", small);
  }
  for (auto& [name, edges] : inputs) {
    std::shuffle(edges.begin(), edges.end(), rng);
    std::vector<Edge> want = edges;
    std::sort(want.begin(), want.end(), edge_less);
    sort_edges(edges);
    ASSERT_EQ(edges.size(), want.size()) << name;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      ASSERT_EQ(edges[i].u, want[i].u) << name << " at " << i;
      ASSERT_EQ(edges[i].v, want[i].v) << name << " at " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(edges[i].w),
                std::bit_cast<std::uint64_t>(want[i].w))
          << name << " at " << i;
    }
  }
}

TEST(SortEdgesDeathTest, RejectsNegativeAndNaNWeights) {
  std::vector<Edge> negative = {{0, 1, 0.5}, {1, 2, -0.25}};
  EXPECT_DEATH(sort_edges(negative), "edge weights must be numbers >= 0");
  std::vector<Edge> nan = {{0, 1, std::numeric_limits<double>::quiet_NaN()},
                           {1, 2, 0.25}};
  EXPECT_DEATH(sort_edges(nan), "edge weights must be numbers >= 0");
}

TEST(Adjacency, ShuffledInputBuildsTheSameGraph) {
  support::Rng rng(67);
  const auto points = geometry::uniform_points(2000, rng);
  std::vector<Edge> edges =
      rgg::geometric_edges_unsorted(points, rgg::connectivity_radius(2000));
  const AdjacencyList g(points.size(), edges);
  std::shuffle(edges.begin(), edges.end(), rng);
  const AdjacencyList shuffled(points.size(), edges);
  ASSERT_EQ(shuffled.edge_count(), g.edge_count());
  for (std::size_t i = 0; i < g.edge_count(); ++i) {
    EXPECT_EQ(shuffled.edges()[i].u, g.edges()[i].u);
    EXPECT_EQ(shuffled.edges()[i].v, g.edges()[i].v);
    EXPECT_EQ(shuffled.edges()[i].w, g.edges()[i].w);
  }
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto want = g.neighbors(u);
    const auto got = shuffled.neighbors(u);
    ASSERT_EQ(got.size(), want.size()) << "row " << u;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].id, want[j].id);
      EXPECT_EQ(got[j].w, want[j].w);
      EXPECT_EQ(got[j].edge_index, want[j].edge_index);
      EXPECT_EQ(got[j].twin, want[j].twin);
    }
  }
}

TEST(Mst, TriangleChoosesTwoLightest) {
  const std::vector<Edge> edges = {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}};
  const auto tree = kruskal_msf(3, edges);
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_DOUBLE_EQ(total_weight(tree), 3.0);
}

TEST(Mst, DisconnectedGivesForest) {
  const std::vector<Edge> edges = {{0, 1, 1.0}, {2, 3, 1.0}};
  const auto tree = kruskal_msf(4, edges);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(is_forest(4, tree));
  EXPECT_FALSE(is_spanning_tree(4, tree));
}

/// Property: the three sequential algorithms agree edge-for-edge.
class MstAgreement : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MstAgreement, KruskalPrimBoruvkaIdentical) {
  const auto [n, seed] = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(seed));
  const auto points = geometry::uniform_points(static_cast<std::size_t>(n), rng);
  // Radius chosen to often leave the graph disconnected — the forest case
  // must agree too.
  const double radius = 1.1 * std::sqrt(std::log(n + 1.0) / n);
  const auto edges = rgg::geometric_edges(points, radius);
  const AdjacencyList g(points.size(), edges);

  const auto kruskal = kruskal_msf(points.size(), edges);
  const auto prim = prim_msf(g);
  const auto boruvka = boruvka_msf(g);
  EXPECT_TRUE(same_edge_set(kruskal, prim));
  EXPECT_TRUE(same_edge_set(kruskal, boruvka));
  EXPECT_TRUE(is_forest(points.size(), kruskal));
  EXPECT_TRUE(spans_same_components(points.size(), kruskal, edges));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGeometric, MstAgreement,
    ::testing::Combine(::testing::Values(2, 5, 20, 100, 400, 1000),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(Mst, BoruvkaPhaseCountLogarithmic) {
  support::Rng rng(61);
  const auto points = geometry::uniform_points(512, rng);
  const auto edges = rgg::geometric_edges(points, 0.2);
  const AdjacencyList g(points.size(), edges);
  const std::size_t phases = boruvka_phase_count(g);
  EXPECT_GE(phases, 1u);
  EXPECT_LE(phases, 10u);  // ≤ log2(512) + slack
}

TEST(TreeUtils, SpanningTreeChecks) {
  const std::vector<Edge> path = {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}};
  EXPECT_TRUE(is_spanning_tree(4, path));
  EXPECT_TRUE(is_forest(4, path));
  std::vector<Edge> cycle = path;
  cycle.push_back({3, 0, 1.0});
  EXPECT_FALSE(is_forest(4, cycle));
  EXPECT_FALSE(is_spanning_tree(4, cycle));
  EXPECT_FALSE(is_spanning_tree(5, path));  // node 4 uncovered
}

TEST(TreeUtils, SameEdgeSetIgnoresOrderAndOrientation) {
  const std::vector<Edge> a = {{0, 1, 1.0}, {2, 1, 2.0}};
  const std::vector<Edge> b = {{1, 2, 2.0}, {1, 0, 1.0}};
  EXPECT_TRUE(same_edge_set(a, b));
  const std::vector<Edge> c = {{0, 1, 1.0}, {0, 2, 2.0}};
  EXPECT_FALSE(same_edge_set(a, c));
}

TEST(TreeUtils, TreeCostMatchesHandComputation) {
  const std::vector<geometry::Point2> pts = {{0, 0}, {1, 0}, {1, 1}};
  const std::vector<Edge> tree = {{0, 1, 1.0}, {1, 2, 1.0}};
  EXPECT_DOUBLE_EQ(tree_cost(pts, tree, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(tree_cost(pts, tree, 2.0), 2.0);
  const std::vector<Edge> diag = {{0, 2, 0.0}};
  EXPECT_NEAR(tree_cost(pts, diag, 2.0), 2.0, 1e-12);
  EXPECT_NEAR(tree_cost(pts, diag, 1.0), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(tree_cost(pts, diag, 3.0), std::pow(std::sqrt(2.0), 3.0), 1e-12);
}

TEST(TreeUtils, ParentArrayAndDepth) {
  const std::vector<Edge> tree = {{0, 1, 1.0}, {1, 2, 1.0}, {1, 3, 1.0}};
  const auto parent = to_parent_array(4, tree, 0);
  EXPECT_EQ(parent[0], kNoNode);
  EXPECT_EQ(parent[1], 0u);
  EXPECT_EQ(parent[2], 1u);
  EXPECT_EQ(parent[3], 1u);
  EXPECT_EQ(tree_depth(4, tree, 0), 2u);
  EXPECT_EQ(tree_depth(4, tree, 1), 1u);
}

TEST(TreeUtils, SpansSameComponents) {
  const std::vector<Edge> ref = {{0, 1, 1.0}, {1, 2, 5.0}, {3, 4, 1.0}};
  const std::vector<Edge> alt = {{0, 2, 2.0}, {1, 2, 5.0}, {3, 4, 7.0}};
  EXPECT_TRUE(spans_same_components(5, alt, ref));
  const std::vector<Edge> wrong = {{0, 1, 1.0}, {3, 4, 1.0}};
  EXPECT_FALSE(spans_same_components(5, wrong, ref));
}

}  // namespace
}  // namespace emst::graph
