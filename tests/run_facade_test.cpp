// Pins the facade contract (docs/API_TOUR.md): emst::run dispatches to the
// per-driver entry points and returns the `sim::RunResult` each one fills,
// so for any driver × seed × fault model every field of the facade's result
// is bitwise identical to a direct call with equivalently-wired options.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "emst/rgg/radii.hpp"
#include "emst/run.hpp"
#include "emst/sim/chaos.hpp"
#include "emst/sim/topology.hpp"
#include "facade_topology.hpp"
#include "observed_run.hpp"

namespace emst {
namespace {

/// Every field, the placement witnesses one by one: the facade hands back
/// the driver's own result, so even the placement split must match. Both
/// results over the instance's n nodes must agree with themselves.
void expect_same_result(const RunResult& facade, const sim::RunResult& direct,
                        std::size_t n) {
  expect_same_run(facade, direct, n);
  EXPECT_EQ(facade.handler_invocations, direct.handler_invocations);
  EXPECT_EQ(facade.rank_handler_invocations, direct.rank_handler_invocations);
}

// A breakdown row against the sequential total: integers exact, energy to an
// ulp-scale bound — splitting one accumulation into per-kind cells
// reassociates the double sum.
void expect_row_matches_totals(const sim::Accounting& row,
                               const sim::Accounting& totals) {
  EXPECT_NEAR(row.energy, totals.energy, 1e-12 * std::max(1.0, totals.energy));
  EXPECT_EQ(row.unicasts, totals.unicasts);
  EXPECT_EQ(row.broadcasts, totals.broadcasts);
  EXPECT_EQ(row.deliveries, totals.deliveries);
  EXPECT_EQ(row.rounds, totals.rounds);
}

/// The fault setups of the loss-recovering drivers (sync GHS, EOPT): clean;
/// faulty = loss, bursts and crash windows under ARQ, then a chaos
/// controller. The adversary is stateful (its kill budget), so each run gets
/// a fresh one from `adversary`.
enum class Faults { kClean, kLossy, kChaos };

std::vector<Faults> fault_setups(bool faulty) {
  if (!faulty) return {Faults::kClean};
  return {Faults::kLossy, Faults::kChaos};
}

void apply_faults(Faults setup, std::uint64_t seed,
                  std::unique_ptr<sim::BudgetedController>& adversary,
                  RunConfig& cfg) {
  if (setup == Faults::kLossy) {
    cfg.faults = faulty_model();
    cfg.faults.seed += seed;
    cfg.arq.enabled = true;
  } else if (setup == Faults::kChaos) {
    adversary = sim::make_controller("kill_leader");
    cfg.faults.controller = adversary.get();
  }
}

/// A faulty run must show its faults, or the comparison proves nothing.
void expect_faults_seen(Faults setup, const RunResult& run) {
  if (setup == Faults::kLossy) {
    EXPECT_GT(run.faults.lost, 0u);
    EXPECT_GT(run.arq.retransmissions, 0u);
  } else if (setup == Faults::kChaos) {
    EXPECT_FALSE(run.injected_crashes.empty());
  }
}

/// Both ledgers on, so `expect_same_result` compares them and checks that
/// they agree with the totals.
RunConfig with_ledgers(Driver driver) {
  RunConfig cfg = config_for(driver);
  cfg.track_per_node_energy = true;
  cfg.record_breakdown = true;
  return cfg;
}

class RunFacadeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(RunFacadeEquivalence, ClassicGhs) {
  const auto [seed, faulty] = GetParam();
  const Instance inst = sample_instance(160, seed);
  for (const Driver driver : {Driver::kClassicGhs, Driver::kClassicGhsCached}) {
    SCOPED_TRACE(driver_name(driver));
    RunConfig cfg = with_ledgers(driver);
    if (faulty) cfg.faults.crashes = {{.node = 3, .from = 2, .until = 6}};
    const RunResult facade = run(inst, cfg);

    ghs::ClassicGhsOptions tuned;
    tuned.moe = driver == Driver::kClassicGhsCached
                    ? ghs::MoeStrategy::kCachedConfirm
                    : ghs::MoeStrategy::kTestAll;
    const sim::RunResult direct =
        ghs::run_classic_ghs(facade_topology(inst, cfg), cfg, tuned);
    expect_same_result(facade, direct, inst.points.size());
  }
}

TEST_P(RunFacadeEquivalence, SyncGhs) {
  const auto [seed, faulty] = GetParam();
  const Instance inst = sample_instance(160, seed);
  for (const Driver driver : {Driver::kSyncGhs, Driver::kSyncGhsProbe}) {
    for (const Faults setup : fault_setups(faulty)) {
      SCOPED_TRACE(testing::Message() << driver_name(driver) << " faults "
                                      << static_cast<int>(setup));
      std::unique_ptr<sim::BudgetedController> adversary;
      RunConfig cfg = with_ledgers(driver);
      apply_faults(setup, seed, adversary, cfg);
      const RunResult facade = run(inst, cfg);
      expect_faults_seen(setup, facade);

      apply_faults(setup, seed, adversary, cfg);
      ghs::SyncGhsOptions tuned;
      tuned.neighbor_cache = driver == Driver::kSyncGhs;
      const ghs::SyncGhsResult direct =
          ghs::run_sync_ghs(facade_topology(inst, cfg), cfg, tuned);
      expect_same_result(facade, direct.run, inst.points.size());
    }
  }
}

TEST_P(RunFacadeEquivalence, Eopt) {
  const auto [seed, faulty] = GetParam();
  const Instance inst = sample_instance(160, seed);
  for (const Faults setup : fault_setups(faulty)) {
    SCOPED_TRACE(testing::Message() << "faults " << static_cast<int>(setup));
    std::unique_ptr<sim::BudgetedController> adversary;
    RunConfig cfg = with_ledgers(Driver::kEopt);
    apply_faults(setup, seed, adversary, cfg);
    const RunResult facade = run(inst, cfg);
    expect_faults_seen(setup, facade);

    apply_faults(setup, seed, adversary, cfg);
    const eopt::EoptResult direct =
        eopt::run_eopt(facade_topology(inst, cfg), cfg);
    expect_same_result(facade, direct.run, inst.points.size());
  }
}

TEST_P(RunFacadeEquivalence, CoNnt) {
  const auto [seed, faulty] = GetParam();
  const Instance inst = sample_instance(160, seed);
  for (const Driver driver : {Driver::kCoNnt, Driver::kCoNntAxis}) {
    SCOPED_TRACE(driver_name(driver));
    RunConfig cfg = with_ledgers(driver);
    if (faulty) cfg.faults.crashes = {{.node = 5, .from = 1, .until = 4}};
    const RunResult facade = run(inst, cfg);

    nnt::CoNntOptions tuned;
    tuned.scheme = driver == Driver::kCoNntAxis ? nnt::RankScheme::kAxis
                                                : nnt::RankScheme::kDiagonal;
    const nnt::CoNntResult direct =
        nnt::run_connt(facade_topology(inst, cfg), cfg, tuned);
    expect_same_result(facade, direct, inst.points.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndFaults, RunFacadeEquivalence,
    ::testing::Combine(::testing::Values(1u, 7u, 42u),
                       ::testing::Values(false, true)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_faulty" : "_clean");
    });

TEST(RunFacade, BackendsAgreeThroughInstance) {
  // run(Instance) builds the implicit grid; every driver must return what
  // it returns on the CSR of the same points and radius.
  const Instance inst = sample_instance(200, 9);
  for (const Driver driver :
       {Driver::kClassicGhs, Driver::kClassicGhsCached, Driver::kSyncGhs,
        Driver::kSyncGhsProbe, Driver::kEopt, Driver::kCoNnt,
        Driver::kCoNntAxis}) {
    SCOPED_TRACE(driver_name(driver));
    const RunConfig cfg = config_for(driver);
    expect_same_result(run(inst, cfg), run(facade_topology(inst, cfg), cfg),
                       inst.points.size());
  }
}

TEST(RunFacade, DriverNamesRoundTrip) {
  for (const Driver d :
       {Driver::kClassicGhs, Driver::kClassicGhsCached, Driver::kSyncGhs,
        Driver::kSyncGhsProbe, Driver::kEopt, Driver::kCoNnt,
        Driver::kCoNntAxis}) {
    Driver parsed{};
    ASSERT_TRUE(parse_driver(driver_name(d), parsed)) << driver_name(d);
    EXPECT_EQ(parsed, d);
  }
  Driver parsed = Driver::kEopt;
  EXPECT_FALSE(parse_driver("prim", parsed));
  EXPECT_EQ(parsed, Driver::kEopt);  // unknown names leave `out` untouched
}

TEST(RunFacade, ResolvedDriverNames) {
  RunConfig cfg;  // no faults, no ranks
  EXPECT_STREQ(resolved_driver_name(Driver::kCoNnt, cfg), "connt");

  cfg.ranks = 2;
  EXPECT_STREQ(resolved_driver_name(Driver::kCoNnt, cfg), "connt-actor");
  EXPECT_STREQ(resolved_driver_name(Driver::kCoNntAxis, cfg),
               "connt-axis-actor");
  // Classic GHS keeps its name — the actor is the same algorithm, and the
  // trace contract wants serial/ranked headers to differ only where the
  // dispatch actually changes the driver (Co-NNT's fault-path variant).
  EXPECT_STREQ(resolved_driver_name(Driver::kClassicGhs, cfg), "ghs");

  cfg.ranks = 0;
  // The fault path also forces the actor variant, but serially.
  cfg.faults.crashes.push_back({.node = 0, .from = 2, .until = 4});
  EXPECT_STREQ(resolved_driver_name(Driver::kCoNnt, cfg), "connt-actor");
}

TEST(RunFacade, PlacementWitnessCountersThroughFacade) {
  const Instance inst = sample_instance(120, 5);
  RunConfig cfg;
  cfg.driver = Driver::kCoNnt;
  // A crash window forces the actor variant while staying serial.
  cfg.faults.crashes.push_back({.node = 1, .from = 2, .until = 4});
  const RunResult serial = run(inst, cfg);
  EXPECT_GT(serial.handler_invocations, 0u);
  EXPECT_EQ(serial.rank_handler_invocations, 0u);

  cfg.faults = {};
  cfg.ranks = 2;
  const RunResult ranked = run(inst, cfg);
  EXPECT_EQ(ranked.handler_invocations, 0u);
  EXPECT_GT(ranked.rank_handler_invocations, 0u);
}

TEST(RunFacade, ResultUnifiesAllFourDrivers) {
  using sim::MsgKind;
  using sim::PhaseTag;
  const Instance inst = sample_instance(64, 23);
  const sim::Topology topo(inst.points, rgg::connectivity_radius(64));

  RunConfig sync_cfg = config_for(Driver::kSyncGhs);
  sync_cfg.track_per_node_energy = true;
  sync_cfg.record_breakdown = true;
  const RunResult sync = run(topo, sync_cfg);
  EXPECT_FALSE(sync.per_node_energy.empty());
  ASSERT_TRUE(sync.breakdown_recorded);
  expect_row_matches_totals(sync.breakdown.phase_total(PhaseTag::kRun),
                            sync.totals);

  const RunResult eopt = run(topo, config_for(Driver::kEopt));
  EXPECT_TRUE(eopt.breakdown_recorded);  // EOPT always records
  EXPECT_FALSE(eopt.hit_phase_cap);

  const RunResult classic = run(topo, config_for(Driver::kClassicGhs));
  EXPECT_FALSE(classic.breakdown_recorded);  // not requested
  EXPECT_TRUE(classic.per_node_energy.empty());

  RunConfig connt_cfg = config_for(Driver::kCoNnt);
  connt_cfg.record_breakdown = true;
  const RunResult connt = run(topo, connt_cfg);
  ASSERT_TRUE(connt.breakdown_recorded);
  // Co-NNT traffic splits over exactly its three message classes.
  const sim::EnergyBreakdown& matrix = connt.breakdown;
  EXPECT_GT(matrix.cell(PhaseTag::kRun, MsgKind::kRequest).messages, 0u);
  EXPECT_GT(matrix.cell(PhaseTag::kRun, MsgKind::kReply).messages, 0u);
  EXPECT_GT(matrix.cell(PhaseTag::kRun, MsgKind::kConnection).messages, 0u);
  EXPECT_EQ(matrix.cell(PhaseTag::kRun, MsgKind::kData).messages, 0u);
  expect_row_matches_totals(matrix.phase_total(PhaseTag::kRun), connt.totals);
}

TEST(RunFacade, ExplicitRadiusReachesGhsDrivers) {
  // The operating radius must stay within the topology's max radius
  // (the instance builds at radius_factor 1.6), so pick a smaller one.
  const Instance inst = sample_instance(120, 3);
  const std::size_t n = inst.points.size();
  const double radius = rgg::connectivity_radius(n, 1.2);
  RunConfig cfg = config_for(Driver::kClassicGhs);
  cfg.classic.radius = radius;
  cfg.sync.radius = radius;
  const sim::Topology topo = facade_topology(inst, cfg);

  const RunResult classic = run(inst, cfg);
  expect_same_result(classic, ghs::run_classic_ghs(topo, {}, cfg.classic), n);
  EXPECT_NE(classic.totals.energy,
            run(inst, config_for(Driver::kClassicGhs)).totals.energy);

  cfg.driver = Driver::kSyncGhs;
  const RunResult sync = run(inst, cfg);
  expect_same_result(sync, ghs::run_sync_ghs(topo, {}, cfg.sync).run, n);
  EXPECT_NE(sync.totals.energy,
            run(inst, config_for(Driver::kSyncGhs)).totals.energy);
}

}  // namespace
}  // namespace emst
