// Tests for EOPT — the paper's core contribution. Exactness, the two-step
// structure, giant detection, energy superiority over the baseline, and the
// §V-A ablation knobs.
#include <gtest/gtest.h>

#include <cmath>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/graph/union_find.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/rng.hpp"

namespace emst::eopt {
namespace {

sim::Topology make_topology(std::size_t n, std::uint64_t seed,
                            const EoptOptions& options = {}) {
  support::Rng rng(seed);
  return eopt_topology(geometry::uniform_points(n, rng), options);
}

std::vector<graph::Edge> reference_msf(const sim::Topology& topo) {
  return graph::kruskal_msf(topo.node_count(), topo.graph().edges());
}

class EoptExactness : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EoptExactness, ProducesTheExactMst) {
  const auto [n, seed] = GetParam();
  const sim::Topology topo =
      make_topology(static_cast<std::size_t>(n),
                    static_cast<std::uint64_t>(seed) * 131 + 7);
  const EoptResult result = run_eopt(topo);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)))
      << "n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, EoptExactness,
    ::testing::Combine(::testing::Values(16, 100, 500, 1500, 3000),
                       ::testing::Values(1, 2, 3, 4)));

TEST(Eopt, StepAccountingSumsToTotal) {
  const sim::Topology topo = make_topology(1000, 73);
  const EoptResult result = run_eopt(topo);
  EXPECT_NEAR(result.step1.energy + result.census.energy + result.step2.energy,
              result.run.totals.energy, 1e-9);
  EXPECT_EQ(result.step1.unicasts + result.census.unicasts + result.step2.unicasts,
            result.run.totals.unicasts);
  EXPECT_EQ(result.step1.broadcasts + result.census.broadcasts +
                result.step2.broadcasts,
            result.run.totals.broadcasts);
}

TEST(Eopt, RadiiMatchThePaper) {
  const std::size_t n = 1000;
  const sim::Topology topo = make_topology(n, 79);
  const EoptResult result = run_eopt(topo);
  EXPECT_NEAR(result.radius1, 1.4 * std::sqrt(1.0 / n), 1e-12);
  EXPECT_NEAR(result.radius2, 1.6 * std::sqrt(std::log(n) / n), 1e-12);
  EXPECT_LT(result.radius1, result.radius2);
}

TEST(Eopt, GiantIsFoundAtScale) {
  // Thm 5.2: at n ≥ 1000 the Step-1 giant should exceed β·ln²n (β = 1)
  // essentially always.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t n = 2000;
    const sim::Topology topo = make_topology(n, seed * 997);
    const EoptResult result = run_eopt(topo);
    EXPECT_TRUE(result.giant_found) << "seed " << seed;
    EXPECT_GT(result.giant_size, n / 4) << "seed " << seed;
    EXPECT_GT(result.step1_fragments, 1u);
  }
}

TEST(Eopt, BeatsClassicGhsOnEnergy) {
  // The headline claim: EOPT uses asymptotically (and in practice at a few
  // thousand nodes) less energy than classical GHS on the same instance.
  double eopt_total = 0.0;
  double ghs_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const sim::Topology topo = make_topology(3000, seed * 401 + 11);
    eopt_total += run_eopt(topo).run.totals.energy;
    ghs_total += ghs::run_classic_ghs(topo).totals.energy;
  }
  EXPECT_LT(eopt_total, ghs_total);
}

TEST(Eopt, Step2CheaperThanRestartingFromScratch) {
  // The giant-passivity optimization means Step-2 message count is far less
  // than n·log n — compare with running modified GHS at r₂ from singletons.
  const sim::Topology topo = make_topology(3000, 83);
  const EoptResult eopt = run_eopt(topo);
  ghs::SyncGhsOptions from_scratch;
  from_scratch.radius = topo.max_radius();
  const auto scratch = ghs::run_sync_ghs(topo, {}, from_scratch);
  EXPECT_LT(eopt.step2.energy, scratch.run.totals.energy);
}

TEST(Eopt, AblationGiantPassivityCostsEnergyWhenOff) {
  const sim::Topology topo = make_topology(3000, 89);
  EoptOptions passive;
  EoptOptions busy;
  busy.giant_passive = false;
  const EoptResult with_passive = run_eopt(topo, {}, passive);
  const EoptResult without = run_eopt(topo, {}, busy);
  // Both must stay exact.
  const auto reference = reference_msf(topo);
  EXPECT_TRUE(graph::same_edge_set(with_passive.run.tree, reference));
  EXPECT_TRUE(graph::same_edge_set(without.run.tree, reference));
  // Step 2 with an active giant floods initiate/report over Θ(n) tree edges.
  EXPECT_LE(with_passive.step2.unicasts, without.step2.unicasts);
}

TEST(Eopt, AblationIdRetention) {
  const sim::Topology topo = make_topology(2000, 97);
  EoptOptions keep;
  EoptOptions drop;
  drop.giant_keeps_id = false;
  const EoptResult kept = run_eopt(topo, {}, keep);
  const EoptResult dropped = run_eopt(topo, {}, drop);
  const auto reference = reference_msf(topo);
  EXPECT_TRUE(graph::same_edge_set(kept.run.tree, reference));
  EXPECT_TRUE(graph::same_edge_set(dropped.run.tree, reference));
  EXPECT_LE(kept.step2.broadcasts, dropped.step2.broadcasts);
}

TEST(Eopt, AblationProbeModeStillExact) {
  const sim::Topology topo = make_topology(1000, 101);
  EoptOptions probe;
  probe.neighbor_cache = false;
  const EoptResult result = run_eopt(topo, {}, probe);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)));
}

TEST(Eopt, CustomStepFactors) {
  EoptOptions options;
  options.step1_factor = 1.2;
  options.step2_factor = 2.0;
  const std::size_t n = 800;
  const sim::Topology topo = make_topology(n, 103, options);
  const EoptResult result = run_eopt(topo, {}, options);
  EXPECT_NEAR(result.radius1, 1.2 * std::sqrt(1.0 / n), 1e-12);
  EXPECT_NEAR(result.radius2, 2.0 * std::sqrt(std::log(n) / n), 1e-12);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)));
}

TEST(Eopt, DeterministicAcrossRuns) {
  const sim::Topology topo = make_topology(700, 107);
  const EoptResult a = run_eopt(topo);
  const EoptResult b = run_eopt(topo);
  EXPECT_DOUBLE_EQ(a.run.totals.energy, b.run.totals.energy);
  EXPECT_EQ(a.run.totals.messages(), b.run.totals.messages());
  EXPECT_TRUE(graph::same_edge_set(a.run.tree, b.run.tree));
}

TEST(Eopt, SeededRunCompletesAPartialForest) {
  // Repair use case: seed EOPT with a subset of the MST and it must finish
  // the exact MST, cheaper than from scratch.
  const sim::Topology topo = make_topology(1500, 211);
  const auto reference = reference_msf(topo);
  ASSERT_EQ(reference.size(), topo.node_count() - 1);
  // Seed: the shortest half of the MST edges (a subset of the MST is always
  // a valid seed).
  ghs::FragmentForest seed;
  seed.leader.resize(topo.node_count());
  {
    graph::UnionFind dsu(topo.node_count());
    for (std::size_t i = 0; i < reference.size() / 2; ++i) {
      seed.tree.push_back(reference[i]);
      dsu.unite(reference[i].u, reference[i].v);
    }
    for (sim::NodeId u = 0; u < topo.node_count(); ++u)
      seed.leader[u] = dsu.find(u);
  }
  const EoptResult seeded = run_eopt(topo, {}, {}, &seed);
  EXPECT_TRUE(graph::same_edge_set(seeded.run.tree, reference));
  const EoptResult scratch = run_eopt(topo);
  EXPECT_LT(seeded.run.totals.messages(), scratch.run.totals.messages());
}

TEST(Eopt, SeededWithCompleteMstIsNearlyFree) {
  const sim::Topology topo = make_topology(800, 223);
  const auto reference = reference_msf(topo);
  ASSERT_EQ(reference.size(), topo.node_count() - 1);
  ghs::FragmentForest seed;
  seed.leader.assign(topo.node_count(), 0);  // one fragment, leader 0
  seed.tree = reference;
  const EoptResult result = run_eopt(topo, {}, {}, &seed);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference));
  // Only announcements + census + one no-op phase remain.
  EXPECT_LT(result.run.totals.energy, run_eopt(topo).run.totals.energy);
}

TEST(Eopt, MinPowerAnnouncementsStayExact) {
  const sim::Topology topo = make_topology(1000, 337);
  EoptOptions options;
  options.announce_min_power = true;
  const EoptResult result = run_eopt(topo, {}, options);
  EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)));
  const EoptResult plain = run_eopt(topo);
  EXPECT_LT(result.run.totals.energy, plain.run.totals.energy);
  EXPECT_EQ(result.run.totals.messages(), plain.run.totals.messages());
}

TEST(Eopt, PerNodeLedgerSumsToTotal) {
  const sim::Topology topo = make_topology(800, 331);
  sim::RunConfig cfg;
  cfg.track_per_node_energy = true;
  const EoptResult result = run_eopt(topo, cfg);
  ASSERT_EQ(result.run.per_node_energy.size(), topo.node_count());
  double total = 0.0;
  for (const double e : result.run.per_node_energy) total += e;
  EXPECT_NEAR(total, result.run.totals.energy, 1e-9);
  // Every node transmits at least once (the initial announcement).
  for (const double e : result.run.per_node_energy) EXPECT_GT(e, 0.0);
}

TEST(Eopt, TinyInstances) {
  // n = 2 and n = 3 exercise threshold and giant-absent paths.
  for (const std::size_t n : {2u, 3u, 5u}) {
    const sim::Topology topo = make_topology(n, 109 + n);
    const EoptResult result = run_eopt(topo);
    EXPECT_TRUE(graph::same_edge_set(result.run.tree, reference_msf(topo)))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace emst::eopt
