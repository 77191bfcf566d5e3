// Tests for the cell-grid spatial index, cross-checked against brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "emst/geometry/deployments.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/spatial/cell_grid.hpp"
#include "emst/support/rng.hpp"

namespace emst::spatial {
namespace {

std::vector<PointIndex> brute_within(std::span<const geometry::Point2> points,
                                     geometry::Point2 p, double r) {
  std::vector<PointIndex> out;
  for (PointIndex i = 0; i < points.size(); ++i) {
    if (geometry::distance(points[i], p) <= r) out.push_back(i);
  }
  return out;
}

TEST(CellGrid, EmptyPointSet) {
  const std::vector<geometry::Point2> points;
  const CellGrid grid(points, 0.1);
  EXPECT_EQ(grid.point_count(), 0u);
  EXPECT_TRUE(grid.within({0.5, 0.5}, 0.3).empty());
  EXPECT_TRUE(grid.k_nearest({0.5, 0.5}, 3, 0).empty());
}

TEST(CellGrid, SinglePoint) {
  const std::vector<geometry::Point2> points = {{0.5, 0.5}};
  const CellGrid grid(points, 0.1);
  EXPECT_EQ(grid.within({0.5, 0.5}, 0.01), std::vector<PointIndex>{0});
  EXPECT_TRUE(grid.within({0.9, 0.9}, 0.1).empty());
}

TEST(CellGrid, BoundaryPointsIndexed) {
  const std::vector<geometry::Point2> points = {{0.0, 0.0}, {1.0, 1.0}, {1.0, 0.0}};
  const CellGrid grid(points, 0.25);
  EXPECT_EQ(grid.within({0.0, 0.0}, 0.001).size(), 1u);
  EXPECT_EQ(grid.within({1.0, 1.0}, 0.001).size(), 1u);
}

class GridVsBrute : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(GridVsBrute, WithinMatchesBruteForce) {
  const auto [n, radius, seed] = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const auto points = geometry::uniform_points(static_cast<std::size_t>(n), rng);
  const CellGrid grid(points, radius);
  for (int q = 0; q < 30; ++q) {
    const geometry::Point2 p{rng.uniform(), rng.uniform()};
    auto got = grid.within(p, radius);
    auto want = brute_within(points, p, radius);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridVsBrute,
    ::testing::Combine(::testing::Values(10, 100, 1000),
                       ::testing::Values(0.01, 0.05, 0.3, 1.5),
                       ::testing::Values(1, 2, 3)));

TEST(CellGrid, ClusteredAutoCellWithinMatchesBruteForce) {
  // Clustered points crowd a few cells of the auto-sized grid; the query
  // radii reach from well inside one cell to many cells across.
  support::Rng rng(6029);
  const auto points =
      geometry::sample_deployment(geometry::Deployment::kClustered, 1500, rng);
  const CellGrid grid = CellGrid::with_auto_cell(points);
  for (int q = 0; q < 40; ++q) {
    const geometry::Point2 p{rng.uniform(), rng.uniform()};
    const double r = rng.uniform(0.02, 0.3);
    auto got = grid.within(p, r);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_within(points, p, r)) << "query " << q << " r " << r;
  }
}

TEST(CellGrid, KNearestMatchesBruteForce) {
  support::Rng rng(71);
  const auto points = geometry::uniform_points(500, rng);
  const CellGrid grid = CellGrid::with_auto_cell(points);
  for (PointIndex u = 0; u < 50; ++u) {
    for (const std::size_t k : {1u, 5u, 20u}) {
      const auto got = grid.k_nearest(points[u], k, u);
      // Brute force: sort all others by distance.
      std::vector<std::pair<double, PointIndex>> all;
      for (PointIndex v = 0; v < points.size(); ++v) {
        if (v != u) all.emplace_back(geometry::distance(points[u], points[v]), v);
      }
      std::sort(all.begin(), all.end());
      ASSERT_EQ(got.size(), k);
      for (std::size_t i = 0; i < k; ++i) {
        // Compare by distance (id ties are broken arbitrarily inside sort).
        EXPECT_DOUBLE_EQ(geometry::distance(points[u], points[got[i]]),
                         all[i].first);
      }
    }
  }
}

TEST(CellGrid, KNearestMoreThanAvailable) {
  const std::vector<geometry::Point2> points = {{0.1, 0.1}, {0.2, 0.2}, {0.9, 0.9}};
  const CellGrid grid(points, 0.2);
  const auto got = grid.k_nearest({0.15, 0.15}, 10, static_cast<PointIndex>(-1));
  EXPECT_EQ(got.size(), 3u);
}

TEST(CellGrid, KNearestSortedByDistance) {
  support::Rng rng(73);
  const auto points = geometry::uniform_points(200, rng);
  const CellGrid grid = CellGrid::with_auto_cell(points);
  const auto got = grid.k_nearest({0.5, 0.5}, 20, static_cast<PointIndex>(-1));
  ASSERT_EQ(got.size(), 20u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(geometry::distance({0.5, 0.5}, points[got[i - 1]]),
              geometry::distance({0.5, 0.5}, points[got[i]]));
  }
}

TEST(CellGrid, CellCountClamped) {
  // A tiny cell size on a small point set must not allocate a huge grid.
  const std::vector<geometry::Point2> points = {{0.5, 0.5}, {0.25, 0.75}};
  const CellGrid grid(points, 1e-9);
  // Clamp formula: √(4·2 + 64) + 1 ≈ 9.5 cells per side at most.
  EXPECT_LE(grid.cells_per_side(), 10u);
  EXPECT_EQ(grid.within({0.5, 0.5}, 0.001).size(), 1u);
}

TEST(CellGrid, ForEachWithinVisitsEachOnce) {
  support::Rng rng(79);
  const auto points = geometry::uniform_points(300, rng);
  const CellGrid grid(points, 0.15);
  std::multiset<PointIndex> seen;
  grid.for_each_within({0.4, 0.6}, 0.15, [&](PointIndex i) { seen.insert(i); });
  for (const PointIndex i : seen) EXPECT_EQ(seen.count(i), 1u);
}

TEST(CellGrid, SquaredDistanceCallbackMatchesIndexOnlyScan) {
  // The (index, d²) form reads the grid's own coordinate copy; it must visit
  // exactly what the index-only form visits, in the same order, and hand
  // over d² bitwise equal to distance_sq against the caller's points.
  support::Rng rng(83);
  const auto points = geometry::uniform_points(2000, rng);
  for (const double cell : {0.02, 0.05, 0.2}) {
    const CellGrid grid(points, cell);
    for (int q = 0; q < 40; ++q) {
      const geometry::Point2 p =
          q % 2 == 0 ? points[static_cast<std::size_t>(q) * 37]
                     : geometry::Point2{rng.uniform(), rng.uniform()};
      for (const double r : {cell / 3, cell, 2.5 * cell}) {
        std::vector<PointIndex> plain;
        grid.for_each_within(p, r, [&](PointIndex i) { plain.push_back(i); });
        std::vector<PointIndex> with_d;
        grid.for_each_within(p, r, [&](PointIndex i, double d_sq) {
          with_d.push_back(i);
          EXPECT_EQ(d_sq, geometry::distance_sq(points[i], p)) << "index " << i;
        });
        EXPECT_EQ(with_d, plain) << "cell " << cell << " r " << r;
      }
    }
  }
}

TEST(CellGrid, PairsWithinMatchBruteForce) {
  // Every unordered pair within r, against brute force over all pairs, on
  // grids whose cells are smaller than r (reach 2 and 3), on a size-clamped
  // grid and with r above the square's side. The brute force applies the
  // grid's membership test, d² <= r·r.
  support::Rng rng(89);
  auto points = geometry::uniform_points(600, rng);
  points.push_back(points[17]);  // coincident points pair up at d = 0
  points.push_back(points[17]);
  const std::vector<geometry::Point2> two = {{0.5, 0.5}, {0.25, 0.75}};
  struct Case {
    const std::vector<geometry::Point2>* points;
    double cell;
    double r;
  };
  const Case cases[] = {{&points, 0.05, 0.075}, {&points, 0.05, 0.125},
                        {&points, 0.2, 0.1},    {&points, 1e-9, 0.05},
                        {&two, 1e-9, 0.4},      {&points, 0.1, 1.5}};
  for (const Case& c : cases) {
    const std::vector<geometry::Point2>& pts = *c.points;
    const CellGrid grid(pts, c.cell);
    std::map<std::pair<PointIndex, PointIndex>, double> want;
    for (PointIndex i = 0; i < pts.size(); ++i) {
      for (PointIndex j = i + 1; j < pts.size(); ++j) {
        const double d_sq = geometry::distance_sq(pts[i], pts[j]);
        if (d_sq <= c.r * c.r) want[{i, j}] = d_sq;
      }
    }
    std::map<std::pair<PointIndex, PointIndex>, double> got;
    grid.for_each_pair_within(c.r, [&](PointIndex i, PointIndex j, double d_sq) {
      EXPECT_LT(i, j);
      EXPECT_TRUE(got.emplace(std::pair{i, j}, d_sq).second)
          << "pair (" << i << ", " << j << ") reported twice";
    });
    EXPECT_EQ(got.size(), want.size()) << "cell " << c.cell << " r " << c.r;
    for (const auto& [pair, d_sq] : want) {
      const auto it = got.find(pair);
      ASSERT_NE(it, got.end()) << "missing (" << pair.first << ", "
                               << pair.second << ") cell " << c.cell << " r " << c.r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second),
                std::bit_cast<std::uint64_t>(d_sq));
    }
  }
}

TEST(CellGrid, DuplicatePointsAllReturned) {
  const std::vector<geometry::Point2> points(5, geometry::Point2{0.3, 0.3});
  const CellGrid grid(points, 0.1);
  EXPECT_EQ(grid.within({0.3, 0.3}, 0.01).size(), 5u);
}

}  // namespace
}  // namespace emst::spatial
