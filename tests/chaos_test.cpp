// Tests for the chaos campaign layer (docs/ROBUSTNESS.md): adversarial
// FaultController strategies driving all four algorithm drivers, the
// runtime InvariantOracle, and the fail-stop graceful-degradation contract.
// The load-bearing claims pinned here:
//
//  - under every shipped strategy (kill budget 20% of n, permanent
//    fail-stop) each driver terminates with the exact MST of each surviving
//    connected component, verified against an independent survivor-subgraph
//    recomputation;
//  - adversarial injection is a pure function of protocol state: 1, 2 and 4
//    worker threads produce bitwise-identical schedules and results;
//  - every adversarial run collapses to a plain crash list — replaying
//    `injected_schedule()` as static `FaultModel::crashes` (or through the
//    ReplaySchedule strategy) reproduces the run exactly;
//  - a seeded invariant violation is delta-minimized by `minimize_crashes`
//    to a ≤ 2-window schedule naming the actual culprit;
//  - attaching the oracle to a clean run changes nothing and flags nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/nnt/rank.hpp"
#include "emst/sim/chaos.hpp"
#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/oracle.hpp"
#include "emst/support/rng.hpp"

namespace emst {
namespace {

constexpr std::array<std::string_view, 4> kDrivers = {
    "eopt", "sync_ghs", "classic_ghs", "connt"};

sim::Topology chaos_field(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return eopt::eopt_topology(geometry::uniform_points(n, rng));
}

struct ChaosRun {
  sim::RunResult run;
  std::vector<graph::NodeId> parent;  ///< connt only
};

ChaosRun run_driver(std::string_view driver, const sim::Topology& topo,
                    sim::FaultController* controller, std::uint64_t fault_seed,
                    sim::InvariantOracle* oracle, std::size_t threads = 0) {
  sim::RunConfig cfg;
  cfg.faults.controller = controller;
  cfg.faults.seed = fault_seed;
  cfg.oracle = oracle;
  cfg.threads = threads;
  ChaosRun out;
  if (driver == "eopt") {
    out.run = eopt::run_eopt(topo, cfg).run;
  } else if (driver == "sync_ghs") {
    out.run = ghs::run_sync_ghs(topo, cfg).run;
  } else if (driver == "classic_ghs") {
    out.run = ghs::run_classic_ghs(topo, cfg);
  } else {
    nnt::CoNntResult res = nnt::run_connt(topo, cfg);
    out.parent = std::move(res.parent);
    out.run = std::move(res);
  }
  return out;
}

void expect_windows_eq(std::span<const sim::CrashWindow> a,
                       std::span<const sim::CrashWindow> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "window " << i;
    EXPECT_EQ(a[i].from, b[i].from) << "window " << i;
    EXPECT_EQ(a[i].until, b[i].until) << "window " << i;
  }
}

// ---------------------------------------------------------------- registry

TEST(ChaosRegistry, ShippedStrategiesRoundTripThroughMakeController) {
  const auto names = sim::shipped_strategies();
  ASSERT_EQ(names.size(), 4u);
  for (const std::string_view name : names) {
    const auto controller = sim::make_controller(name);
    ASSERT_NE(controller, nullptr) << name;
    EXPECT_EQ(controller->name(), name);
    EXPECT_EQ(controller->kills(), 0u);
  }
  EXPECT_EQ(sim::make_controller("no_such_strategy"), nullptr);
  EXPECT_EQ(sim::make_controller(""), nullptr);
}

// ---------------------------------------------- graceful-degradation sweep

// The acceptance envelope: every shipped strategy against every driver, kill
// budget 20% permanent fail-stop, invariant oracle on — each run must end
// with the exact MST of each surviving component and a silent oracle.
TEST(ChaosCampaign, EveryStrategyKeepsEveryDriverExactOnSurvivors) {
  const std::size_t n = 96;
  const sim::Topology topo = chaos_field(n, 0xC4A05);
  for (const std::string_view driver : kDrivers) {
    for (const std::string_view strategy : sim::shipped_strategies()) {
      const auto controller = sim::make_controller(strategy);
      sim::InvariantOracle oracle;
      const ChaosRun out =
          run_driver(driver, topo, controller.get(), 0xBADD1E, &oracle);
      const std::string cell =
          std::string(driver) + " x " + std::string(strategy);
      // The strategies attack and stay within the fail-stop budget.
      EXPECT_GT(controller->kills(), 0u) << cell;
      EXPECT_LE(controller->kills(), n / 5) << cell;
      EXPECT_EQ(controller->kills(), out.run.injected_crashes.size()) << cell;
      for (const sim::CrashWindow& w : out.run.injected_crashes) {
        EXPECT_EQ(w.until, sim::kCrashForever) << cell;  // permanent fail-stop
        EXPECT_LT(w.node, n) << cell;
      }
      // Per-component exactness against the independent recomputation.
      const std::vector<char> alive =
          sim::alive_mask(n, out.run.injected_crashes);
      if (driver == "connt") {
        EXPECT_EQ(out.parent,
                  nnt::survivor_nnt_parents(topo.points(), alive,
                                            nnt::RankScheme::kDiagonal))
            << cell;
      } else {
        EXPECT_TRUE(
            graph::same_edge_set(out.run.tree, sim::survivor_msf(topo, alive)))
            << cell;
      }
      EXPECT_GE(out.run.epochs, 1u) << cell;
      EXPECT_TRUE(oracle.ok()) << cell << ": "
                               << (oracle.violations().empty()
                                       ? ""
                                       : oracle.violations()[0].detail);
    }
  }
}

// The epoch-restart drivers survive a node that is dead from birth: it is
// excluded from wakeup and the survivors converge on the exact contract
// output (classic GHS may need one restart to learn the dead edges).
TEST(ChaosCampaign, EpochDriversSurviveARoundZeroCrash) {
  const std::size_t n = 64;
  const sim::Topology topo = chaos_field(n, 0x20E0);
  std::vector<char> alive(n, 1);
  alive[5] = 0;
  {
    sim::RunConfig cfg;
    cfg.faults.crashes = {{5, 0, sim::kCrashForever}};
    const auto res = ghs::run_classic_ghs(topo, cfg);
    EXPECT_TRUE(
        graph::same_edge_set(res.tree, sim::survivor_msf(topo, alive)));
    for (const graph::Edge& e : res.tree) {
      EXPECT_NE(e.u, 5u);
      EXPECT_NE(e.v, 5u);
    }
  }
  {
    sim::RunConfig cfg;
    cfg.faults.crashes = {{5, 0, sim::kCrashForever}};
    const auto res = nnt::run_connt(topo, cfg);
    EXPECT_EQ(res.epochs, 1u);  // excluded at epoch start: clean first epoch
    EXPECT_EQ(res.parent,
              nnt::survivor_nnt_parents(topo.points(), alive,
                                        nnt::RankScheme::kDiagonal));
    EXPECT_EQ(res.parent[5], graph::kNoNode);
  }
}

// ----------------------------------------------------- thread determinism

// Adversarial injection is consulted only from the serial sections that own
// the fault clock, from state that is itself bitwise-identical across worker
// counts — so the whole adversarial run is too (chaos.hpp contract).
TEST(ChaosCampaign, AdversarialRunsAreBitwiseIdenticalAcrossThreadCounts) {
  const std::size_t n = 96;
  const sim::Topology topo = chaos_field(n, 0x7EAD5);
  for (const std::string_view driver : kDrivers) {
    std::unique_ptr<sim::BudgetedController> base_controller =
        sim::make_controller("kill_leader");
    const ChaosRun base =
        run_driver(driver, topo, base_controller.get(), 0x5EED, nullptr, 1);
    ASSERT_FALSE(base.run.injected_crashes.empty()) << driver;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      const auto controller = sim::make_controller("kill_leader");
      const ChaosRun out =
          run_driver(driver, topo, controller.get(), 0x5EED, nullptr, threads);
      const std::string cell =
          std::string(driver) + " @ " + std::to_string(threads) + " threads";
      // bit-identical doubles
      EXPECT_EQ(out.run.totals.energy, base.run.totals.energy) << cell;
      EXPECT_EQ(out.run.tree, base.run.tree) << cell;
      EXPECT_EQ(out.parent, base.parent) << cell;
      EXPECT_EQ(out.run.epochs, base.run.epochs) << cell;
      expect_windows_eq(out.run.injected_crashes, base.run.injected_crashes);
    }
  }
}

// ------------------------------------------------------------------ replay

// Every adversarial run collapses to a plain crash list: feeding the
// recorded `injected_schedule()` back as static `FaultModel::crashes` — or
// through the ReplaySchedule strategy — reproduces the run bit-for-bit.
TEST(ChaosReplay, InjectedScheduleReplaysAsAStaticCrashList) {
  const sim::Topology topo = chaos_field(96, 0x2EB1A);
  for (const std::string_view driver : {std::string_view("sync_ghs"),
                                        std::string_view("classic_ghs")}) {
    const auto controller = sim::make_controller("sever_core_edge");
    const ChaosRun original =
        run_driver(driver, topo, controller.get(), 0xFACE, nullptr);
    const sim::RunResult& want = original.run;
    ASSERT_FALSE(want.injected_crashes.empty()) << driver;

    // (a) The distilled schedule as a pre-scripted crash list, no controller.
    sim::FaultModel static_model;
    static_model.crashes = want.injected_crashes;
    static_model.seed = 0xFACE;
    sim::RunConfig cfg;
    cfg.faults = static_model;
    const sim::RunResult replay_static =
        driver == "sync_ghs" ? ghs::run_sync_ghs(topo, cfg).run
                             : ghs::run_classic_ghs(topo, cfg);
    EXPECT_EQ(replay_static.totals.energy, want.totals.energy) << driver;
    EXPECT_EQ(replay_static.tree, want.tree) << driver;
    EXPECT_EQ(replay_static.epochs, want.epochs) << driver;

    // (b) The same schedule through the controller interface.
    sim::ReplaySchedule replayer(want.injected_crashes);
    const ChaosRun replay_ctrl =
        run_driver(driver, topo, &replayer, 0xFACE, nullptr);
    EXPECT_EQ(replay_ctrl.run.totals.energy, want.totals.energy) << driver;
    EXPECT_EQ(replay_ctrl.run.tree, want.tree) << driver;
    EXPECT_EQ(replay_ctrl.run.epochs, want.epochs) << driver;
    expect_windows_eq(replay_ctrl.run.injected_crashes, want.injected_crashes);
  }
}

// ------------------------------------------------------------------- ddmin

// A dumbbell deployment whose two clusters touch only through one bridge
// node: killing the bridge — and nothing else — disconnects the survivors.
sim::Topology dumbbell_topology() {
  return sim::Topology({{0.10, 0.50},   // 0  cluster A
                        {0.15, 0.45},   // 1
                        {0.20, 0.55},   // 2
                        {0.18, 0.50},   // 3
                        {0.90, 0.50},   // 4  cluster B
                        {0.85, 0.45},   // 5
                        {0.80, 0.55},   // 6
                        {0.82, 0.50},   // 7
                        {0.50, 0.50}},  // 8  the bridge
                       0.4);
}

TEST(ChaosDdmin, SeededViolationMinimizesToTheBridgeCrash) {
  const sim::Topology topo = dumbbell_topology();
  const std::size_t n = topo.node_count();
  // "Does this schedule trip an invariant?" as a deterministic predicate:
  // run the driver with the oracle attached, then apply the per-component
  // exactness contract — survivors must form ONE component here unless the
  // bridge died, so a disconnected survivor forest is the seeded violation
  // (recorded through InvariantOracle::note, the documented driver hook).
  const auto trips = [&](std::span<const sim::CrashWindow> schedule) {
    sim::RunConfig cfg;
    cfg.faults.crashes.assign(schedule.begin(), schedule.end());
    sim::InvariantOracle oracle;
    cfg.oracle = &oracle;
    const auto res = ghs::run_sync_ghs(topo, cfg);
    const std::vector<char> alive = sim::alive_mask(n, cfg.faults.crashes);
    const auto survivors = static_cast<std::size_t>(
        std::count(alive.begin(), alive.end(), char{1}));
    if (res.run.tree.size() + 1 < survivors) {
      oracle.note("connectivity", 0, "survivor subgraph disconnected");
    }
    return !oracle.ok();
  };

  // Seven windows; only the bridge kill (node 8) matters. The decoys kill
  // redundant cluster members, recover, or are zero-length no-ops.
  const std::vector<sim::CrashWindow> schedule = {
      {1, 3, sim::kCrashForever},  // decoy: cluster A stays connected
      {2, 4, sim::kCrashForever},  // decoy
      {5, 3, sim::kCrashForever},  // decoy: cluster B stays connected
      {6, 5, sim::kCrashForever},  // decoy
      {3, 2, 6},                   // decoy: temporary, recovers
      {0, 5, 5},                   // decoy: zero-length, never down
      {8, 4, sim::kCrashForever},  // the culprit: the bridge dies
  };
  ASSERT_TRUE(trips(schedule));

  const std::vector<sim::CrashWindow> minimal =
      sim::minimize_crashes(schedule, trips);
  ASSERT_LE(minimal.size(), 2u);  // the acceptance bound
  ASSERT_FALSE(minimal.empty());
  EXPECT_EQ(minimal[0].node, 8u);  // ... and it names the actual culprit
  EXPECT_EQ(minimal[0].until, sim::kCrashForever);
  EXPECT_TRUE(trips(minimal));  // 1-minimal: still failing ...
  for (std::size_t skip = 0; skip < minimal.size(); ++skip) {
    std::vector<sim::CrashWindow> without;
    for (std::size_t i = 0; i < minimal.size(); ++i) {
      if (i != skip) without.push_back(minimal[i]);
    }
    EXPECT_FALSE(trips(without));  // ... and no window is removable
  }
}

TEST(ChaosDdmin, NonFailingScheduleMinimizesToEmpty) {
  const std::vector<sim::CrashWindow> schedule = {
      {1, 3, sim::kCrashForever}, {2, 4, sim::kCrashForever}};
  const auto never = [](std::span<const sim::CrashWindow>) { return false; };
  EXPECT_TRUE(sim::minimize_crashes(schedule, never).empty());
}

// ------------------------------------------------------------------ oracle

TEST(InvariantOracle, RecordsFragmentForestViolationsInsteadOfThrowing) {
  sim::InvariantOracle oracle;
  // A cyclic "tree" with an agreeing leader labelling: acyclicity violated.
  const std::vector<graph::NodeId> leaders = {0, 0, 0};
  const std::vector<graph::Edge> cyclic = {
      {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.5}};
  oracle.check_fragments(7, leaders, cyclic);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.violations()[0].invariant, "fragments");
  EXPECT_EQ(oracle.violations()[0].round, 7u);
}

TEST(InvariantOracle, FlagsLeaderLabelsThatDisagreeWithConnectivity) {
  sim::InvariantOracle oracle;
  // Two components but one shared leader label: agreement violated.
  const std::vector<graph::NodeId> leaders = {0, 0, 0, 0};
  const std::vector<graph::Edge> forest = {{0, 1, 1.0}, {2, 3, 1.0}};
  oracle.check_fragments(3, leaders, forest);
  EXPECT_FALSE(oracle.ok());
}

TEST(InvariantOracle, LivenessBoundTripsOnceNotPerRound) {
  sim::OracleOptions options;
  options.max_rounds = 5;
  sim::InvariantOracle oracle(options);
  sim::EnergyMeter meter;
  oracle.on_round(5, meter);
  EXPECT_TRUE(oracle.ok());
  oracle.on_round(6, meter);
  oracle.on_round(7, meter);  // still over the bound: no duplicate report
  ASSERT_EQ(oracle.violations().size(), 1u);
  EXPECT_EQ(oracle.violations()[0].invariant, "liveness");
}

// Attaching the oracle to a clean run flags nothing and changes nothing —
// the hooks observe, they never perturb.
TEST(InvariantOracle, CleanRunsPassEveryCheckBitIdentically) {
  const sim::Topology topo = chaos_field(128, 0xC1EA2);
  {
    sim::RunConfig plain;
    plain.record_breakdown = true;  // exercises the conservation check
    sim::RunConfig checked = plain;
    sim::InvariantOracle oracle;
    checked.oracle = &oracle;
    const auto a = ghs::run_sync_ghs(topo, plain);
    const auto b = ghs::run_sync_ghs(topo, checked);
    EXPECT_TRUE(oracle.ok());
    EXPECT_EQ(a.run.totals.energy, b.run.totals.energy);
    EXPECT_EQ(a.run.tree, b.run.tree);
  }
  {
    sim::RunConfig plain;
    sim::RunConfig checked = plain;
    sim::InvariantOracle oracle;
    checked.oracle = &oracle;
    const auto a = ghs::run_classic_ghs(topo, plain);
    const auto b = ghs::run_classic_ghs(topo, checked);
    EXPECT_TRUE(oracle.ok());
    EXPECT_EQ(a.totals.energy, b.totals.energy);
    EXPECT_EQ(a.tree, b.tree);
  }
  {
    // Fault-free Co-NNT with an oracle runs the actor path's hooks.
    sim::RunConfig plain;
    sim::RunConfig checked = plain;
    sim::InvariantOracle oracle;
    checked.oracle = &oracle;
    const auto a = nnt::run_connt_actor(topo, plain);
    const auto b = nnt::run_connt_actor(topo, checked);
    EXPECT_TRUE(oracle.ok());
    EXPECT_EQ(a.totals.energy, b.totals.energy);
    EXPECT_EQ(a.parent, b.parent);
  }
}

}  // namespace
}  // namespace emst
