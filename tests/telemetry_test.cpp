// Tests for the structured telemetry subsystem (docs/TELEMETRY.md): the
// meter's event emission and context stamping, the per-phase × per-kind
// breakdown matrix, and the replay invariant — `replay_events` must rebuild
// Accounting / FaultStats / ArqStats / the breakdown bit-for-bit from the
// event stream alone, for every driver, with and without faults + ARQ, and
// every event must keep the trace's event rules. Also pins the guarantee
// that attaching telemetry never perturbs a run's results. The JSONL format
// and its checker are tested in trace_check_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/run.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/oracle.hpp"
#include "emst/sim/reliable.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/sim/trace_replay.hpp"
#include "emst/support/rng.hpp"

namespace emst {
namespace {

using sim::EventType;
using sim::MsgKind;
using sim::PhaseTag;

sim::Topology random_topology(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::Topology(geometry::uniform_points(n, rng),
                       rgg::connectivity_radius(n));
}

// Bitwise comparisons: the replay invariant is exact, so no tolerances.
void expect_accounting_eq(const sim::Accounting& a, const sim::Accounting& b) {
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.unicasts, b.unicasts);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.rounds, b.rounds);
}

// Cross-derivation comparisons (a kind-bucketed row sum vs the sequential
// total): integers exact, energy to an ulp-scale bound — splitting one
// accumulation into per-kind cells reassociates the double sum.
void expect_accounting_near(const sim::Accounting& a, const sim::Accounting& b) {
  EXPECT_NEAR(a.energy, b.energy, 1e-12 * std::max(1.0, b.energy));
  EXPECT_EQ(a.unicasts, b.unicasts);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.rounds, b.rounds);
}

void expect_faults_eq(const sim::FaultStats& a, const sim::FaultStats& b) {
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.dropped_crashed, b.dropped_crashed);
  EXPECT_EQ(a.suppressed, b.suppressed);
}

void expect_arq_eq(const sim::ArqStats& a, const sim::ArqStats& b) {
  EXPECT_EQ(a.data_sent, b.data_sent);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.acks_sent, b.acks_sent);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.give_ups, b.give_ups);
  EXPECT_EQ(a.timeout_rounds, b.timeout_rounds);
}

sim::FaultModel lossy_model(std::uint64_t seed) {
  sim::FaultModel model;
  model.loss = 0.1;
  model.seed = seed;
  model.crashes = {{3, 4, 9}, {7, 6, 12}};
  return model;
}

sim::ArqOptions arq_on() {
  sim::ArqOptions arq;
  arq.enabled = true;
  arq.max_retries = 6;
  return arq;
}

// Replays a stream and expects every event to keep the event rules.
sim::ReplayTotals checked_replay(
    const std::vector<sim::TelemetryEvent>& events) {
  sim::ReplayTotals out = sim::replay_events(events);
  EXPECT_EQ(out.violation, "") << "event " << out.violation_index;
  EXPECT_EQ(out.events, events.size());
  return out;
}

// ------------------------------------------------------------------- meter

TEST(TelemetryMeter, EventsCarryTheAmbientContext) {
  sim::MemoryTraceSink sink;
  sim::Telemetry telemetry(&sink);
  sim::EnergyMeter meter;
  meter.attach_telemetry(&telemetry);

  meter.set_phase(PhaseTag::kStep1);
  meter.set_kind(MsgKind::kConnect);
  meter.set_fragment(42);
  meter.charge_unicast(3, 5, 0.25);
  meter.set_kind(MsgKind::kAnnounce);
  meter.charge_broadcast(3, 0.5, 7);
  meter.tick_rounds(2);
  meter.note_event(EventType::kLoss, 1, 2, 0.125);

  ASSERT_EQ(sink.events().size(), 4u);
  const sim::TelemetryEvent& uni = sink.events()[0];
  EXPECT_EQ(uni.type, EventType::kUnicast);
  EXPECT_EQ(uni.kind, MsgKind::kConnect);
  EXPECT_EQ(uni.phase, PhaseTag::kStep1);
  EXPECT_EQ(uni.from, 3u);
  EXPECT_EQ(uni.to, 5u);
  EXPECT_EQ(uni.fragment, 42u);
  EXPECT_EQ(uni.reach, 0.25);
  EXPECT_EQ(uni.energy, meter.model().cost(0.25));
  EXPECT_EQ(uni.round, 0u);

  const sim::TelemetryEvent& bcast = sink.events()[1];
  EXPECT_EQ(bcast.type, EventType::kBroadcast);
  EXPECT_EQ(bcast.kind, MsgKind::kAnnounce);
  EXPECT_EQ(bcast.receivers, 7u);
  EXPECT_EQ(bcast.to, sim::kNoEventNode);

  const sim::TelemetryEvent& round = sink.events()[2];
  EXPECT_EQ(round.type, EventType::kRound);
  EXPECT_EQ(round.value, 2u);
  EXPECT_EQ(round.round, 2u);  // stamped after the increment: clock-final

  const sim::TelemetryEvent& loss = sink.events()[3];
  EXPECT_EQ(loss.type, EventType::kLoss);
  EXPECT_EQ(loss.energy, 0.0);
  EXPECT_EQ(loss.reach, 0.125);
}

TEST(TelemetryMeter, InertHubIsDroppedAtAttach) {
  sim::Telemetry inert;  // no sink, no aggregation
  sim::EnergyMeter meter;
  meter.attach_telemetry(&inert);
  EXPECT_EQ(meter.telemetry(), nullptr);
  meter.attach_telemetry(nullptr);
  EXPECT_EQ(meter.telemetry(), nullptr);

  sim::MemoryTraceSink sink;
  sim::Telemetry live(&sink);
  meter.attach_telemetry(&live);
  EXPECT_EQ(meter.telemetry(), &live);
}

TEST(TelemetryMeter, PhaseScopeRestoresOnExit) {
  sim::EnergyMeter meter;
  EXPECT_EQ(meter.phase(), PhaseTag::kRun);
  {
    const auto outer = meter.scoped_phase(PhaseTag::kStep1);
    EXPECT_EQ(meter.phase(), PhaseTag::kStep1);
    {
      const auto inner = meter.scoped_phase(PhaseTag::kCensus);
      EXPECT_EQ(meter.phase(), PhaseTag::kCensus);
    }
    EXPECT_EQ(meter.phase(), PhaseTag::kStep1);
  }
  EXPECT_EQ(meter.phase(), PhaseTag::kRun);
}

TEST(TelemetryMeter, ZeroRoundTickEmitsNothing) {
  sim::MemoryTraceSink sink;
  sim::Telemetry telemetry(&sink);
  sim::EnergyMeter meter;
  meter.attach_telemetry(&telemetry);
  meter.tick_rounds(0);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(meter.totals().rounds, 0u);
}

TEST(TelemetryMeter, BreakdownRowSumsMatchTotals) {
  sim::EnergyMeter meter;
  meter.enable_breakdown();
  meter.set_kind(MsgKind::kTest);
  meter.charge_unicast(0, 1, 0.1);
  meter.set_kind(MsgKind::kAccept);
  meter.charge_unicast(1, 0, 0.2);
  meter.charge_broadcast(0, 0.3, 4);
  meter.tick_rounds(5);

  // Single-phase run: the kRun row covers the totals.
  const sim::Accounting row = meter.breakdown().phase_total(PhaseTag::kRun);
  expect_accounting_near(row, meter.totals());
  EXPECT_EQ(meter.breakdown().cell(PhaseTag::kRun, MsgKind::kTest).messages,
            1u);
  EXPECT_EQ(meter.breakdown().cell(PhaseTag::kRun, MsgKind::kAccept).messages,
            2u);  // unicast + broadcast, both charged under kAccept
}

// ------------------------------------------------------------------ replay

TEST(TelemetryReplay, ManualStreamRebuildsTheMeter) {
  sim::MemoryTraceSink sink;
  sim::Telemetry telemetry(&sink);
  sim::EnergyMeter meter;
  meter.attach_telemetry(&telemetry);
  meter.enable_breakdown();

  support::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    meter.set_kind(static_cast<MsgKind>(
        rng.uniform_int(static_cast<std::uint64_t>(MsgKind::kCount))));
    if (rng.uniform() < 0.7) {
      meter.charge_unicast(i % 17, (i + 1) % 17, rng.uniform());
    } else {
      meter.charge_broadcast(i % 17, rng.uniform(),
                             static_cast<std::size_t>(i % 5));
    }
    if (i % 13 == 0) meter.tick_round();
  }

  const sim::ReplayTotals replay = checked_replay(sink.events());
  expect_accounting_eq(replay.totals, meter.totals());
  EXPECT_TRUE(replay.breakdown == meter.breakdown());
}

TEST(TelemetryReplay, SyncGhsFaultFreeIsExactAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const sim::Topology topo = random_topology(72, seed);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    sim::RunConfig cfg;
    cfg.telemetry = &telemetry;
    cfg.record_breakdown = true;
    const ghs::SyncGhsResult result = ghs::run_sync_ghs(topo, cfg);

    const sim::ReplayTotals replay = checked_replay(sink.events());
    expect_accounting_eq(replay.totals, result.run.totals);
    expect_faults_eq(replay.faults, result.run.faults);
    expect_arq_eq(replay.arq, result.run.arq);
    ASSERT_TRUE(result.run.breakdown_recorded);
    EXPECT_TRUE(replay.breakdown == result.run.breakdown);
  }
}

TEST(TelemetryReplay, SyncGhsUnderFaultsAndArqIsExactAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const sim::Topology topo = random_topology(64, seed);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    sim::RunConfig cfg;
    cfg.telemetry = &telemetry;
    cfg.record_breakdown = true;
    cfg.faults = lossy_model(seed * 101);
    cfg.arq = arq_on();
    const ghs::SyncGhsResult result = ghs::run_sync_ghs(topo, cfg);

    const sim::ReplayTotals replay = checked_replay(sink.events());
    expect_accounting_eq(replay.totals, result.run.totals);
    expect_faults_eq(replay.faults, result.run.faults);
    expect_arq_eq(replay.arq, result.run.arq);
    EXPECT_TRUE(replay.breakdown == result.run.breakdown);
    // Under 10% loss something must actually have happened, or the test
    // proves nothing.
    EXPECT_GT(result.run.faults.lost, 0u);
    EXPECT_GT(result.run.arq.retransmissions, 0u);
  }
}

TEST(TelemetryReplay, EoptIsExactAcrossSeedsWithAndWithoutFaults) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool faulty : {false, true}) {
      support::Rng rng(seed);
      const sim::Topology topo =
          eopt::eopt_topology(geometry::uniform_points(80, rng));
      sim::MemoryTraceSink sink;
      sim::Telemetry telemetry(&sink);
      sim::RunConfig cfg;
      cfg.telemetry = &telemetry;
      if (faulty) {
        cfg.faults = lossy_model(seed * 31);
        cfg.arq = arq_on();
      }
      const eopt::EoptResult result = eopt::run_eopt(topo, cfg);

      const sim::ReplayTotals replay = checked_replay(sink.events());
      expect_accounting_eq(replay.totals, result.run.totals);
      expect_faults_eq(replay.faults, result.run.faults);
      expect_arq_eq(replay.arq, result.run.arq);
      ASSERT_TRUE(result.run.breakdown_recorded);
      EXPECT_TRUE(replay.breakdown == result.run.breakdown);
    }
  }
}

TEST(TelemetryReplay, EoptStepSharesAreThePhaseRows) {
  const sim::Topology topo = random_topology(90, 5);
  const eopt::EoptResult result = eopt::run_eopt(topo);

  // The Thm 5.3 stage shares ARE phase_total of the recorded matrix — one
  // definition, so any other consumer of the matrix agrees bit-for-bit.
  ASSERT_TRUE(result.run.breakdown_recorded);
  const sim::EnergyBreakdown& matrix = result.run.breakdown;
  expect_accounting_eq(result.step1, matrix.phase_total(PhaseTag::kStep1));
  expect_accounting_eq(result.census, matrix.phase_total(PhaseTag::kCensus));
  expect_accounting_eq(result.step2, matrix.phase_total(PhaseTag::kStep2));

  // Integer counters split exactly across stages; energy to an ulp bound
  // (double sums reassociate across rows).
  EXPECT_EQ(result.step1.unicasts + result.census.unicasts +
                result.step2.unicasts,
            result.run.totals.unicasts);
  EXPECT_EQ(result.step1.broadcasts + result.census.broadcasts +
                result.step2.broadcasts,
            result.run.totals.broadcasts);
  EXPECT_EQ(result.step1.rounds + result.census.rounds + result.step2.rounds,
            result.run.totals.rounds);
  const double sum =
      result.step1.energy + result.census.energy + result.step2.energy;
  EXPECT_NEAR(sum, result.run.totals.energy,
              1e-12 * result.run.totals.energy);

  // The census stage is exactly the kCensus message class.
  expect_accounting_eq(result.census,
                       [&] {
                         sim::Accounting census_kind;
                         const auto& cell =
                             matrix.cell(PhaseTag::kCensus, MsgKind::kCensus);
                         census_kind.energy = cell.energy;
                         census_kind.unicasts = cell.messages;
                         census_kind.deliveries = cell.messages;
                         census_kind.rounds = result.census.rounds;
                         return census_kind;
                       }());
}

TEST(TelemetryReplay, ClassicGhsStreamRebuildsTotalsAndBreakdown) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const sim::Topology topo = random_topology(48, seed);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    sim::RunConfig cfg;
    cfg.telemetry = &telemetry;
    cfg.record_breakdown = true;
    ghs::ClassicGhsOptions options;
    options.moe = ghs::MoeStrategy::kCachedConfirm;
    const sim::RunResult result = ghs::run_classic_ghs(topo, cfg, options);

    const sim::ReplayTotals replay = checked_replay(sink.events());
    expect_accounting_eq(replay.totals, result.totals);
    ASSERT_TRUE(result.breakdown_recorded);
    EXPECT_TRUE(replay.breakdown == result.breakdown);
  }
}

// -------------------------------------------------------------- aggregates

TEST(TelemetryAggregate, NodeLedgerMatchesTheMeterBitForBit) {
  const sim::Topology topo = random_topology(60, 11);
  for (const Driver driver : {Driver::kSyncGhs, Driver::kEopt}) {
    SCOPED_TRACE(driver_name(driver));
    sim::Telemetry telemetry;
    telemetry.enable_aggregation(topo.node_count());
    RunConfig cfg = config_for(driver);
    cfg.telemetry = &telemetry;
    cfg.track_per_node_energy = true;
    const RunResult result = run(topo, cfg);

    // Both ledgers add the same costs in the same order — bitwise equal.
    ASSERT_EQ(telemetry.aggregate().node_energy.size(),
              result.per_node_energy.size());
    for (std::size_t u = 0; u < topo.node_count(); ++u) {
      EXPECT_EQ(telemetry.aggregate().node_energy[u],
                result.per_node_energy[u])
          << "node " << u;
    }
  }
}

TEST(TelemetryAggregate, AwakeRoundsCountDistinctActiveRounds) {
  sim::Telemetry telemetry;
  telemetry.enable_aggregation(3);
  sim::EnergyMeter meter;
  meter.attach_telemetry(&telemetry);

  meter.charge_unicast(0, 1, 0.1);  // round 0: 0 and 1 awake
  meter.charge_unicast(0, 1, 0.1);  // same round: no double count
  meter.tick_round();
  meter.charge_broadcast(2, 0.2, 2);  // round 1: only the SENDER is awake
  meter.tick_round();

  const sim::TelemetryAggregate& agg = telemetry.aggregate();
  EXPECT_EQ(agg.rounds, 2u);
  EXPECT_EQ(agg.awake_rounds[0], 1u);
  EXPECT_EQ(agg.awake_rounds[1], 1u);
  EXPECT_EQ(agg.awake_rounds[2], 1u);  // broadcast listeners stay idle
  EXPECT_EQ(agg.idle_rounds(0), 1u);
  EXPECT_EQ(agg.idle_rounds(2), 1u);
}

TEST(TelemetryAggregate, ReusedHubLeavesEachEoptResultConsistent) {
  // The hub aggregates every run it observes, so its ledger is not any one
  // run's: with the meter-side ledger off, each result's stays empty.
  const sim::Topology topo = random_topology(70, 13);
  sim::Telemetry telemetry;
  telemetry.enable_aggregation(topo.node_count());
  sim::RunConfig cfg;
  cfg.telemetry = &telemetry;
  const eopt::EoptResult first = eopt::run_eopt(topo, cfg);
  const eopt::EoptResult second = eopt::run_eopt(topo, cfg);
  std::string why;
  EXPECT_TRUE(sim::consistent(second.run, topo.node_count(), &why)) << why;
  EXPECT_TRUE(second.run.per_node_energy.empty());
  EXPECT_EQ(second.run.totals.energy, first.run.totals.energy);
}

// ----------------------------------------------------------- no-perturbation

TEST(TelemetryOff, AttachingTelemetryNeverChangesResults) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const sim::Topology topo = random_topology(56, seed);
    sim::RunConfig plain;
    plain.faults = lossy_model(seed);
    plain.arq = arq_on();
    const ghs::SyncGhsResult base = ghs::run_sync_ghs(topo, plain);

    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    sim::RunConfig instrumented = plain;
    instrumented.telemetry = &telemetry;
    instrumented.record_breakdown = true;
    const ghs::SyncGhsResult traced = ghs::run_sync_ghs(topo, instrumented);

    EXPECT_EQ(base.run.tree, traced.run.tree);
    expect_accounting_eq(base.run.totals, traced.run.totals);
    expect_faults_eq(base.run.faults, traced.run.faults);
    expect_arq_eq(base.run.arq, traced.run.arq);
    EXPECT_EQ(base.fragments_per_phase, traced.fragments_per_phase);
  }
}

}  // namespace
}  // namespace emst
