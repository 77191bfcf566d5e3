// Pins the facade contract (docs/API_TOUR.md): emst::run dispatches to the
// per-driver entry points, so for any driver × seed × fault model the
// facade's tree and accounting are bitwise identical to a direct call with
// equivalently-wired options, and its one `RunResult` shape carries the
// fields every driver shares.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "emst/rgg/radii.hpp"
#include "emst/run.hpp"
#include "emst/sim/topology.hpp"
#include "facade_topology.hpp"

namespace emst {
namespace {

void expect_same_tree(const std::vector<graph::Edge>& a,
                      const std::vector<graph::Edge>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "edge " << i;
    EXPECT_EQ(a[i].w, b[i].w) << "edge " << i;  // bitwise, not near
  }
}

void expect_same_totals(const sim::Accounting& a, const sim::Accounting& b) {
  EXPECT_EQ(a.energy, b.energy);  // bitwise, not near
  EXPECT_EQ(a.unicasts, b.unicasts);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.bits, b.bits);
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

class RunFacadeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(RunFacadeEquivalence, ClassicGhs) {
  const auto [seed, faulty] = GetParam();
  const Instance inst = sample_instance(160, seed);
  for (const Driver driver : {Driver::kClassicGhs, Driver::kClassicGhsCached}) {
    RunConfig cfg;
    cfg.driver = driver;
    if (faulty) cfg.faults.crashes = {{.node = 3, .from = 2, .until = 6}};
    const RunResult facade = run(inst, cfg);

    const sim::Topology topo = facade_topology(inst, cfg);
    ghs::ClassicGhsOptions opt;
    static_cast<sim::RunConfig&>(opt) = static_cast<const sim::RunConfig&>(cfg);
    opt.moe = driver == Driver::kClassicGhsCached
                  ? ghs::MoeStrategy::kCachedConfirm
                  : ghs::MoeStrategy::kTestAll;
    const ghs::MstRunResult direct = ghs::run_classic_ghs(topo, opt);

    expect_same_tree(facade.tree, direct.tree);
    expect_same_totals(facade.totals, direct.totals);
    EXPECT_EQ(facade.phases, direct.phases);
    EXPECT_EQ(facade.epochs, direct.epochs);
  }
}

TEST_P(RunFacadeEquivalence, SyncGhs) {
  const auto [seed, faulty] = GetParam();
  const Instance inst = sample_instance(160, seed);
  for (const Driver driver : {Driver::kSyncGhs, Driver::kSyncGhsProbe}) {
    RunConfig cfg;
    cfg.driver = driver;
    if (faulty) {
      cfg.faults.loss = 0.05;
      cfg.arq.enabled = true;
    }
    const RunResult facade = run(inst, cfg);

    const sim::Topology topo = facade_topology(inst, cfg);
    ghs::SyncGhsOptions opt;
    static_cast<sim::RunConfig&>(opt) = static_cast<const sim::RunConfig&>(cfg);
    opt.neighbor_cache = driver == Driver::kSyncGhs;
    const ghs::SyncGhsResult direct = ghs::run_sync_ghs(topo, opt);

    expect_same_tree(facade.tree, direct.run.tree);
    expect_same_totals(facade.totals, direct.run.totals);
    EXPECT_EQ(facade.phases, direct.run.phases);
    EXPECT_EQ(facade.arq.retransmissions, direct.arq.retransmissions);
    EXPECT_EQ(facade.faults.lost, direct.faults.lost);
  }
}

TEST_P(RunFacadeEquivalence, Eopt) {
  const auto [seed, faulty] = GetParam();
  const Instance inst = sample_instance(160, seed);
  RunConfig cfg;
  cfg.driver = Driver::kEopt;
  if (faulty) {
    cfg.faults.loss = 0.05;
    cfg.arq.enabled = true;
  }
  const RunResult facade = run(inst, cfg);

  const sim::Topology topo = facade_topology(inst, cfg);
  eopt::EoptOptions opt;
  static_cast<sim::RunConfig&>(opt) = static_cast<const sim::RunConfig&>(cfg);
  const eopt::EoptResult direct = eopt::run_eopt(topo, opt);

  expect_same_tree(facade.tree, direct.run.tree);
  expect_same_totals(facade.totals, direct.run.totals);
  EXPECT_EQ(facade.phases, direct.run.phases);
  EXPECT_EQ(facade.arq.retransmissions, direct.arq.retransmissions);
  EXPECT_EQ(facade.faults.lost, direct.fault_stats.lost);
}

TEST_P(RunFacadeEquivalence, CoNnt) {
  const auto [seed, faulty] = GetParam();
  const Instance inst = sample_instance(160, seed);
  for (const Driver driver : {Driver::kCoNnt, Driver::kCoNntAxis}) {
    RunConfig cfg;
    cfg.driver = driver;
    if (faulty) cfg.faults.crashes = {{.node = 5, .from = 1, .until = 4}};
    const RunResult facade = run(inst, cfg);

    const sim::Topology topo = facade_topology(inst, cfg);
    nnt::CoNntOptions opt;
    static_cast<sim::RunConfig&>(opt) = static_cast<const sim::RunConfig&>(cfg);
    opt.scheme = driver == Driver::kCoNntAxis ? nnt::RankScheme::kAxis
                                              : nnt::RankScheme::kDiagonal;
    const nnt::CoNntResult direct = nnt::run_connt(topo, opt);

    expect_same_tree(facade.tree, direct.tree);
    expect_same_totals(facade.totals, direct.totals);
    EXPECT_EQ(facade.epochs, direct.epochs);
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
    const RunResult grid = run(inst, cfg);
    const RunResult csr = run(facade_topology(inst, cfg), cfg);
    expect_same_tree(grid.tree, csr.tree);
    expect_same_totals(grid.totals, csr.totals);
    EXPECT_EQ(grid.phases, csr.phases);
    EXPECT_EQ(grid.fragments, csr.fragments);
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
  RunConfig cfg;
  cfg.driver = Driver::kClassicGhs;
  cfg.radius = rgg::connectivity_radius(inst.points.size(), 1.2);
  const RunResult facade = run(inst, cfg);

  const sim::Topology topo = facade_topology(inst, cfg);
  ghs::ClassicGhsOptions opt;
  opt.moe = ghs::MoeStrategy::kTestAll;
  opt.radius = cfg.radius;
  const ghs::MstRunResult direct = ghs::run_classic_ghs(topo, opt);
  expect_same_tree(facade.tree, direct.tree);
  expect_same_totals(facade.totals, direct.totals);
}

}  // namespace
}  // namespace emst
