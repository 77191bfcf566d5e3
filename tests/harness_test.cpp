// Tests for the experiment harness: shared-instance execution, aggregation,
// determinism under parallelism, and figure-driver structure.
#include <gtest/gtest.h>

#include <cstdlib>

#include "emst/harness/experiment.hpp"
#include "emst/harness/figures.hpp"

namespace emst::harness {
namespace {

TEST(RunInstance, AllAlgorithmsOnSharedInstance) {
  InstanceConfig config;
  config.n = 600;
  config.seed = 42;
  const InstanceResults r = run_instance(config);
  ASSERT_TRUE(r.ghs.has_value());
  ASSERT_TRUE(r.eopt.has_value());
  ASSERT_TRUE(r.connt.has_value());
  EXPECT_TRUE(r.graph_connected);
  // GHS and EOPT both recover the exact MST on a connected instance.
  EXPECT_TRUE(r.ghs->exact_mst);
  EXPECT_TRUE(r.eopt->exact_mst);
  EXPECT_TRUE(r.ghs->spanning);
  EXPECT_TRUE(r.eopt->spanning);
  EXPECT_TRUE(r.connt->spanning);
  // Identical trees ⇒ identical costs.
  EXPECT_DOUBLE_EQ(r.ghs->tree_len, r.eopt->tree_len);
  EXPECT_DOUBLE_EQ(r.ghs->tree_len, r.mst_len);
  // Co-NNT approximates.
  EXPECT_GE(r.connt->tree_len, r.mst_len - 1e-9);
  EXPECT_LT(r.connt->tree_len, 2.0 * r.mst_len);
}

TEST(RunInstance, SelectionFlags) {
  InstanceConfig config;
  config.n = 200;
  config.seed = 7;
  config.run_ghs = false;
  config.run_connt = false;
  const InstanceResults r = run_instance(config);
  EXPECT_FALSE(r.ghs.has_value());
  EXPECT_TRUE(r.eopt.has_value());
  EXPECT_FALSE(r.connt.has_value());
  ASSERT_TRUE(r.eopt_detail.has_value());
  EXPECT_GT(r.eopt_detail->step1.energy, 0.0);
}

TEST(RunInstance, SameSeedSameResults) {
  InstanceConfig config;
  config.n = 300;
  config.seed = 1234;
  const InstanceResults a = run_instance(config);
  const InstanceResults b = run_instance(config);
  EXPECT_DOUBLE_EQ(a.ghs->energy, b.ghs->energy);
  EXPECT_DOUBLE_EQ(a.eopt->energy, b.eopt->energy);
  EXPECT_DOUBLE_EQ(a.connt->energy, b.connt->energy);
  EXPECT_DOUBLE_EQ(a.mst_len, b.mst_len);
}

TEST(SweepPoint, AggregatesTrials) {
  InstanceConfig config;
  config.n = 250;
  const SweepPoint sweep = run_sweep_point(config, 6, 99);
  EXPECT_EQ(sweep.trials, 6u);
  EXPECT_EQ(sweep.ghs.trials, 6u);
  EXPECT_EQ(sweep.eopt.trials, 6u);
  EXPECT_EQ(sweep.connt.trials, 6u);
  EXPECT_GT(sweep.ghs.energy.mean(), 0.0);
  EXPECT_GT(sweep.eopt.energy.mean(), 0.0);
  EXPECT_GT(sweep.connt.energy.mean(), 0.0);
  EXPECT_GT(sweep.mst_len.mean(), 0.0);
}

TEST(SweepPoint, DeterministicAcrossThreadCounts) {
  InstanceConfig config;
  config.n = 150;
  setenv("EMST_THREADS", "1", 1);
  const SweepPoint serial = run_sweep_point(config, 5, 31337);
  setenv("EMST_THREADS", "4", 1);
  const SweepPoint parallel = run_sweep_point(config, 5, 31337);
  unsetenv("EMST_THREADS");
  EXPECT_DOUBLE_EQ(serial.ghs.energy.mean(), parallel.ghs.energy.mean());
  EXPECT_DOUBLE_EQ(serial.eopt.energy.mean(), parallel.eopt.energy.mean());
  EXPECT_DOUBLE_EQ(serial.connt.energy.mean(), parallel.connt.energy.mean());
}

TEST(RunInstance, AlphaExponentScalesEnergy) {
  InstanceConfig two;
  two.n = 300;
  two.seed = 77;
  two.run_ghs = false;
  two.run_connt = false;
  InstanceConfig four = two;
  four.alpha = 4.0;
  const InstanceResults a2 = run_instance(two);
  const InstanceResults a4 = run_instance(four);
  // Same instance, same tree; α=4 energy is far smaller (distances < 1).
  EXPECT_TRUE(a2.eopt->exact_mst);
  EXPECT_TRUE(a4.eopt->exact_mst);
  EXPECT_EQ(a2.eopt->messages, a4.eopt->messages);
  EXPECT_LT(a4.eopt->energy, a2.eopt->energy);
}

class DeploymentExactness
    : public ::testing::TestWithParam<geometry::Deployment> {};

TEST_P(DeploymentExactness, EoptExactOnEveryDeployment) {
  InstanceConfig config;
  config.n = 600;
  config.seed = 88;
  config.deployment = GetParam();
  config.run_ghs = false;
  config.run_connt = false;
  const InstanceResults r = run_instance(config);
  ASSERT_TRUE(r.eopt.has_value());
  EXPECT_TRUE(r.eopt->exact_mst);  // exactness never needed uniformity
}

INSTANTIATE_TEST_SUITE_P(AllModels, DeploymentExactness,
                         ::testing::ValuesIn(geometry::all_deployments()));

TEST(Fig3, DataShapeAndTables) {
  const Fig3Data data = run_fig3({100, 400}, 3, 7);
  ASSERT_EQ(data.points.size(), 2u);
  EXPECT_EQ(data.points[0].n, 100u);
  EXPECT_GT(data.points[1].ghs_energy, 0.0);
  const auto t3a = fig3a_table(data);
  EXPECT_EQ(t3a.rows(), 2u);
  const auto t3b = fig3b_table(data);
  EXPECT_EQ(t3b.rows(), 2u);
}

TEST(Fig3, EnergyOrderingGhsAboveEopt) {
  const Fig3Data data = run_fig3({1500}, 4, 21);
  ASSERT_EQ(data.points.size(), 1u);
  const Fig3Point& p = data.points[0];
  EXPECT_GT(p.ghs_energy, p.eopt_energy);
  EXPECT_GT(p.eopt_energy, p.connt_energy);
  EXPECT_EQ(p.ghs_exact, p.trials);
  EXPECT_EQ(p.eopt_exact, p.trials);
  EXPECT_EQ(p.connt_spanning, p.trials);
}

TEST(TabA, RatiosAreModest) {
  const auto rows = run_taba({400}, 4, 17);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].ratio_len, 1.0);
  EXPECT_LT(rows[0].ratio_len, 1.6);   // paper measures ≈ 1.10
  EXPECT_GT(rows[0].ratio_sq, 1.0);
  EXPECT_LT(rows[0].ratio_sq, 2.5);    // paper measures ≈ 1.31
  const auto table = taba_table(rows);
  EXPECT_EQ(table.rows(), 1u);
}

TEST(Percolation, RowsCoverSweep) {
  const auto rows = run_percolation({1000}, {0.8, 1.4}, 3, 5);
  ASSERT_EQ(rows.size(), 2u);
  // Giant fraction grows with the radius factor.
  EXPECT_LT(rows[0].giant_fraction, rows[1].giant_fraction);
  EXPECT_EQ(rows[0].trials, 3u);
  const auto table = percolation_table(rows);
  EXPECT_EQ(table.rows(), 2u);
}

}  // namespace
}  // namespace emst::harness
