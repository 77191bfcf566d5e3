// End-to-end integration tests: the full pipeline on shared instances,
// cross-algorithm agreements, and the paper's qualitative claims at
// experiment scale (fixed seeds, generous tolerances).
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/harness/figures.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/percolation/analysis.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/support/rng.hpp"

namespace emst {
namespace {

TEST(Integration, AllMstAlgorithmsAgreeOnOneInstance) {
  support::Rng rng(314159);
  const std::size_t n = 1200;
  const auto points = geometry::uniform_points(n, rng);
  const sim::Topology topo(points, rgg::connectivity_radius(n));

  const auto kruskal = graph::kruskal_msf(n, topo.graph().edges());
  const auto classic = ghs::run_classic_ghs(topo);
  const auto sync_probe = [&] {
    ghs::SyncGhsOptions o;
    o.neighbor_cache = false;
    return ghs::run_sync_ghs(topo, {}, o);
  }();
  const auto sync_cache = ghs::run_sync_ghs(topo, {});
  const auto eopt = eopt::run_eopt(topo);

  EXPECT_TRUE(graph::same_edge_set(classic.tree, kruskal));
  EXPECT_TRUE(graph::same_edge_set(sync_probe.run.tree, kruskal));
  EXPECT_TRUE(graph::same_edge_set(sync_cache.run.tree, kruskal));
  EXPECT_TRUE(graph::same_edge_set(eopt.run.tree, kruskal));
}

TEST(Integration, EnergyHierarchyAtScale) {
  // Fig 3(a)'s qualitative content: GHS ≫ EOPT ≫ Co-NNT, on shared
  // instances, averaged over a few seeds.
  double ghs = 0.0;
  double eo = 0.0;
  double nnt = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    support::Rng rng(seed * 2718);
    const std::size_t n = 3000;
    const auto points = geometry::uniform_points(n, rng);
    const sim::Topology topo(points, rgg::connectivity_radius(n));
    ghs += ghs::run_classic_ghs(topo).totals.energy;
    eo += eopt::run_eopt(topo).run.totals.energy;
    nnt += nnt::run_connt(topo).totals.energy;
  }
  EXPECT_GT(ghs, 1.5 * eo);  // the paper's gap at n=3000 is far larger
  EXPECT_GT(eo, nnt);
}

TEST(Integration, EnergyGrowsLikeLogPowers) {
  // Fig 3(b): between n=500 and n=8000, GHS energy grows ≈ (ln 8000/ln 500)²
  // and EOPT ≈ (ln 8000/ln 500) while Co-NNT stays flat. Check growth
  // *ordering* with wide tolerances.
  auto mean3 = [&](std::size_t n, std::uint64_t base) {
    double g = 0.0;
    double e = 0.0;
    double c = 0.0;
    for (std::uint64_t s = 0; s < 3; ++s) {
      support::Rng rng(base + s);
      const auto points = geometry::uniform_points(n, rng);
      const sim::Topology topo(points, rgg::connectivity_radius(n));
      g += ghs::run_classic_ghs(topo).totals.energy;
      e += eopt::run_eopt(topo).run.totals.energy;
      c += nnt::run_connt(topo).totals.energy;
    }
    return std::array<double, 3>{g / 3, e / 3, c / 3};
  };
  const auto small = mean3(500, 10);
  const auto large = mean3(8000, 20);
  const double ghs_growth = large[0] / small[0];
  const double eopt_growth = large[1] / small[1];
  const double connt_growth = large[2] / small[2];
  EXPECT_GT(ghs_growth, eopt_growth);
  EXPECT_GT(eopt_growth, connt_growth * 0.999);
  EXPECT_LT(connt_growth, 2.0);  // essentially flat
}

TEST(Integration, EoptStepEnergySplitMatchesTheory) {
  // Step 1 runs at r₁² = c₁/n per message: Θ(log n) total. Step 2 should be
  // the same order, NOT Θ(log²n) — the census and the passive giant keep it
  // down. Verify step2 ≤ a modest multiple of step1.
  support::Rng rng(1618);
  const std::size_t n = 5000;
  const auto points = geometry::uniform_points(n, rng);
  const sim::Topology topo(points, rgg::connectivity_radius(n));
  const auto result = eopt::run_eopt(topo);
  EXPECT_LT(result.step2.energy, 10.0 * result.step1.energy);
  EXPECT_LT(result.census.energy, result.step1.energy);
}

TEST(Integration, PercolationReportConsistentWithEoptGiant) {
  // The percolation module and EOPT's census must agree on the giant's
  // scale for the same instance.
  support::Rng rng(9001);
  const std::size_t n = 4000;
  const auto points = geometry::uniform_points(n, rng);
  const auto instance = rgg::build_rgg(points, rgg::percolation_radius(n, 1.4));
  const auto report = percolation::analyze(instance);

  const sim::Topology topo(points, rgg::connectivity_radius(n));
  const auto result = eopt::run_eopt(topo);
  ASSERT_TRUE(result.giant_found);
  EXPECT_EQ(result.giant_size, report.giant_nodes);
}

TEST(Integration, MessageComplexityOrdering) {
  // Message counts: classical GHS Θ(|E| + n log n) > modified GHS Θ(n log n)
  // ≈ EOPT > Co-NNT Θ(n).
  support::Rng rng(112358);
  const std::size_t n = 3000;
  const auto points = geometry::uniform_points(n, rng);
  const sim::Topology topo(points, rgg::connectivity_radius(n));
  const auto classic = ghs::run_classic_ghs(topo);
  const auto eo = eopt::run_eopt(topo);
  const auto nn = nnt::run_connt(topo);
  EXPECT_GT(classic.totals.messages(), eo.run.totals.messages());
  EXPECT_GT(eo.run.totals.messages(), nn.totals.messages());
}

TEST(Integration, LowerBoundHoldsEmpirically) {
  // Thm 4.1: Ω(log n) energy for any spanning-tree construction; and Ω(1)
  // via L_MST = Σ d² over MST edges. Every exact-MST algorithm we run must
  // sit above L_MST.
  support::Rng rng(271828);
  const std::size_t n = 2000;
  const auto points = geometry::uniform_points(n, rng);
  const sim::Topology topo(points, rgg::connectivity_radius(n));
  const auto mst = rgg::euclidean_mst(points);
  const double l_mst = graph::tree_cost(points, mst, 2.0);
  EXPECT_GT(ghs::run_classic_ghs(topo).totals.energy, l_mst);
  EXPECT_GT(eopt::run_eopt(topo).run.totals.energy, l_mst);
  // Co-NNT builds a different tree but still must pay its own tree cost.
  const auto nn = nnt::run_connt(topo);
  EXPECT_GT(nn.totals.energy,
            graph::tree_cost(points, nn.tree, 2.0) - 1e-9);
}

}  // namespace
}  // namespace emst
