// Differential testing: every MST engine against every other, across sizes,
// seeds, radius regimes, and deployments. The engines share nothing but the
// canonical edge order, so agreement is strong evidence of correctness —
// GHS's 1983 proof, the phase-sync engine's Borůvka argument, and Kruskal
// all have to coincide edge-for-edge.
#include <gtest/gtest.h>

#include <cstdint>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/deployments.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/rng.hpp"

namespace emst {
namespace {

struct Scenario {
  std::size_t n;
  std::uint64_t seed;
  double radius_factor;  // of the connectivity radius
  geometry::Deployment deployment;
  // gtest prints a parameter without a printer as a dump of its bytes, and
  // CMake's gtest_discover_tests puts that dump into each ctest name. This
  // field fills what was tail padding, so the dump holds no stack bytes.
  std::uint32_t zero = 0;
};
static_assert(sizeof(Scenario) ==
                  sizeof(std::size_t) + sizeof(std::uint64_t) +
                      sizeof(double) + sizeof(geometry::Deployment) +
                      sizeof(std::uint32_t),
              "Scenario must have no padding");

class EveryEngineAgrees : public ::testing::TestWithParam<Scenario> {};

TEST_P(EveryEngineAgrees, OnTheSameInstance) {
  const Scenario sc = GetParam();
  SCOPED_TRACE(testing::Message()
               << "n=" << sc.n << " seed=" << sc.seed
               << " radius_factor=" << sc.radius_factor << " deployment="
               << geometry::deployment_name(sc.deployment));
  support::Rng rng(sc.seed);
  const auto points = geometry::sample_deployment(sc.deployment, sc.n, rng);
  const double radius =
      rgg::connectivity_radius(sc.n, 1.6) * sc.radius_factor;
  const sim::Topology topo(points, radius);
  const auto kruskal = graph::kruskal_msf(sc.n, topo.graph().edges());

  // 1. Classical GHS, synchronous.
  EXPECT_TRUE(graph::same_edge_set(ghs::run_classic_ghs(topo).tree, kruskal));
  // 2. Classical GHS, asynchronous delays + cached MOE.
  {
    ghs::ClassicGhsOptions options;
    options.delays = {3, sc.seed ^ 0xd11aULL};
    options.moe = ghs::MoeStrategy::kCachedConfirm;
    EXPECT_TRUE(graph::same_edge_set(
        ghs::run_classic_ghs(topo, {}, options).tree, kruskal));
  }
  // 3. Phase-sync, probe MOE.
  {
    ghs::SyncGhsOptions options;
    options.neighbor_cache = false;
    EXPECT_TRUE(graph::same_edge_set(
        ghs::run_sync_ghs(topo, {}, options).run.tree, kruskal));
  }
  // 4. Phase-sync, cached MOE with min-power announcements.
  {
    ghs::SyncGhsOptions options;
    options.announce_min_power = true;
    EXPECT_TRUE(graph::same_edge_set(
        ghs::run_sync_ghs(topo, {}, options).run.tree, kruskal));
  }
  // 5. EOPT (only meaningful when the topology radius is the connectivity
  //    radius; at the reduced factor the Step-1 radius may exceed it, which
  //    run_eopt clamps — still exact either way).
  EXPECT_TRUE(graph::same_edge_set(eopt::run_eopt(topo).run.tree, kruskal));
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  std::uint64_t seed = 1;
  for (const std::size_t n : {60u, 300u, 900u}) {
    for (const double factor : {0.55, 1.0}) {  // sub-connectivity and full
      for (const geometry::Deployment d :
           {geometry::Deployment::kUniform, geometry::Deployment::kClustered}) {
        out.push_back({n, seed++ * 7919, factor, d});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EveryEngineAgrees,
                         ::testing::ValuesIn(scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           const Scenario& sc = info.param;
                           // Appended piecewise: GCC 12 misreports
                           // "literal" + std::string&& as -Wrestrict.
                           std::string name = "n";
                           name += std::to_string(sc.n);
                           name += "_f";
                           name += std::to_string(
                               static_cast<int>(sc.radius_factor * 100));
                           name += "_";
                           name += geometry::deployment_name(sc.deployment);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace emst
