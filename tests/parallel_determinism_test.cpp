// Thread-count determinism at the driver level (docs/PERF.md).
//
// The contract: `RunConfig::threads` changes wall-clock behaviour only.
// For every driver (classic GHS, sync GHS, EOPT, Co-NNT), every seed, with
// and without faults+ARQ, the full observable result — tree, accounting
// (float energy bitwise), phases, fault/ARQ counters, per-node ledger,
// breakdown matrix, and the complete telemetry event stream — must be
// identical at thread counts {1, 2, 4, 8}. A single flipped bit anywhere
// fails the run: these are equality assertions, not tolerances.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/run_report.hpp"
#include "emst/support/rng.hpp"

namespace emst {
namespace {

constexpr std::size_t kNodes = 160;
constexpr std::size_t kSeeds = 10;
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

/// Everything observable about one run, copied out so runs can be compared
/// after their backing results are gone.
struct Observed {
  std::vector<graph::Edge> tree;
  sim::Accounting totals;
  std::size_t phases = 0;
  std::size_t fragments = 0;
  sim::FaultStats faults;
  sim::ArqStats arq;
  std::vector<double> per_node;
  sim::EnergyBreakdown breakdown;
  bool hit_phase_cap = false;
  std::vector<sim::TelemetryEvent> events;
};

Observed observe(const RunReport& report, const std::vector<graph::Edge>& tree,
                 const sim::MemoryTraceSink& sink) {
  Observed out;
  out.tree = tree;
  out.totals = report.totals;
  out.phases = report.phases;
  out.fragments = report.fragments;
  out.faults = report.faults;
  out.arq = report.arq;
  if (report.per_node_energy != nullptr) out.per_node = *report.per_node_energy;
  if (report.breakdown != nullptr) out.breakdown = *report.breakdown;
  out.hit_phase_cap = report.hit_phase_cap;
  out.events = sink.events();
  return out;
}

void expect_observed_equal(const Observed& got, const Observed& want,
                           const char* label, std::uint64_t seed,
                           std::size_t threads) {
  SCOPED_TRACE(testing::Message() << label << " seed=" << seed
                                  << " threads=" << threads);
  ASSERT_EQ(got.tree.size(), want.tree.size());
  for (std::size_t i = 0; i < got.tree.size(); ++i) {
    EXPECT_EQ(got.tree[i].u, want.tree[i].u);
    EXPECT_EQ(got.tree[i].v, want.tree[i].v);
    EXPECT_EQ(got.tree[i].w, want.tree[i].w);  // bitwise
  }
  EXPECT_EQ(got.totals.energy, want.totals.energy);  // bitwise, no NEAR
  EXPECT_EQ(got.totals.unicasts, want.totals.unicasts);
  EXPECT_EQ(got.totals.broadcasts, want.totals.broadcasts);
  EXPECT_EQ(got.totals.deliveries, want.totals.deliveries);
  EXPECT_EQ(got.totals.rounds, want.totals.rounds);
  EXPECT_EQ(got.phases, want.phases);
  EXPECT_EQ(got.fragments, want.fragments);
  EXPECT_EQ(got.faults.lost, want.faults.lost);
  EXPECT_EQ(got.faults.dropped_crashed, want.faults.dropped_crashed);
  EXPECT_EQ(got.faults.suppressed, want.faults.suppressed);
  EXPECT_EQ(got.arq.data_sent, want.arq.data_sent);
  EXPECT_EQ(got.arq.retransmissions, want.arq.retransmissions);
  EXPECT_EQ(got.arq.acks_sent, want.arq.acks_sent);
  EXPECT_EQ(got.arq.delivered, want.arq.delivered);
  EXPECT_EQ(got.arq.give_ups, want.arq.give_ups);
  EXPECT_EQ(got.arq.timeout_rounds, want.arq.timeout_rounds);
  EXPECT_EQ(got.per_node, want.per_node);  // element-wise bitwise
  EXPECT_EQ(got.breakdown, want.breakdown);
  EXPECT_EQ(got.hit_phase_cap, want.hit_phase_cap);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    ASSERT_EQ(got.events[i], want.events[i]) << "event " << i;
  }
}

sim::Topology make_topology(std::uint64_t seed,
                            std::vector<geometry::Point2>& points) {
  support::Rng rng(seed);
  points = geometry::uniform_points(kNodes, rng);
  return sim::Topology(points, rgg::connectivity_radius(kNodes));
}

/// Standard fault + ARQ configuration for the fault-aware drivers.
sim::FaultModel faulty_model() {
  sim::FaultModel faults;
  faults.loss = 0.08;
  faults.use_gilbert = true;
  faults.crashes.push_back({7, 4, 18});
  faults.crashes.push_back({23, 0, 12});
  return faults;
}

template <typename Options>
void configure(Options& options, std::size_t threads,
               sim::Telemetry* telemetry) {
  options.track_per_node_energy = true;
  options.record_breakdown = true;
  options.threads = threads;
  options.telemetry = telemetry;
}

template <typename RunFn>
void expect_thread_invariant(const char* label, RunFn&& run_at) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Observed baseline;
    bool have_baseline = false;
    for (const std::size_t threads : kThreadCounts) {
      const Observed got = run_at(seed, threads);
      if (!have_baseline) {
        baseline = got;
        have_baseline = true;
        EXPECT_FALSE(baseline.tree.empty())
            << label << " seed " << seed << ": empty tree";
        continue;
      }
      expect_observed_equal(got, baseline, label, seed, threads);
    }
  }
}

TEST(ParallelDeterminism, ClassicGhs) {
  expect_thread_invariant("ghs", [](std::uint64_t seed, std::size_t threads) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    ghs::ClassicGhsOptions options;
    configure(options, threads, &telemetry);
    const auto run = ghs::run_classic_ghs(topo, options);
    return observe(run.report(), run.tree, sink);
  });
}

TEST(ParallelDeterminism, ClassicGhsCachedWithDelays) {
  // Random per-message delays drive the FIFO clamp and the multi-bucket
  // calendar ring; the cached-MOE variant adds local broadcasts (ANNOUNCE).
  expect_thread_invariant(
      "ghs-cached", [](std::uint64_t seed, std::size_t threads) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        ghs::ClassicGhsOptions options;
        options.moe = ghs::MoeStrategy::kCachedConfirm;
        options.delays = {3, 0xabc0ULL + seed};
        configure(options, threads, &telemetry);
        const auto run = ghs::run_classic_ghs(topo, options);
        return observe(run.report(), run.tree, sink);
      });
}

TEST(ParallelDeterminism, SyncGhs) {
  expect_thread_invariant("sync", [](std::uint64_t seed, std::size_t threads) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    ghs::SyncGhsOptions options;
    configure(options, threads, &telemetry);
    const auto run = ghs::run_sync_ghs(topo, options);
    return observe(run.report(), run.run.tree, sink);
  });
}

TEST(ParallelDeterminism, SyncGhsProbeFaultyArq) {
  expect_thread_invariant(
      "sync-probe+faults", [](std::uint64_t seed, std::size_t threads) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        ghs::SyncGhsOptions options;
        options.neighbor_cache = false;
        options.faults = faulty_model();
        options.faults.seed += seed;
        options.arq.enabled = true;
        configure(options, threads, &telemetry);
        const auto run = ghs::run_sync_ghs(topo, options);
        return observe(run.report(), run.run.tree, sink);
      });
}

TEST(ParallelDeterminism, Eopt) {
  expect_thread_invariant("eopt", [](std::uint64_t seed, std::size_t threads) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    eopt::EoptOptions options;
    configure(options, threads, &telemetry);
    const auto run = eopt::run_eopt(topo, options);
    return observe(run.report(), run.run.tree, sink);
  });
}

TEST(ParallelDeterminism, EoptFaultyArq) {
  expect_thread_invariant(
      "eopt+faults", [](std::uint64_t seed, std::size_t threads) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        eopt::EoptOptions options;
        options.faults = faulty_model();
        options.faults.seed += seed;
        options.arq.enabled = true;
        configure(options, threads, &telemetry);
        const auto run = eopt::run_eopt(topo, options);
        return observe(run.report(), run.run.tree, sink);
      });
}

TEST(ParallelDeterminism, CoNnt) {
  expect_thread_invariant("connt", [](std::uint64_t seed, std::size_t threads) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    nnt::CoNntOptions options;
    configure(options, threads, &telemetry);
    const auto run = nnt::run_connt(topo, options);
    return observe(run.report(), run.tree, sink);
  });
}

TEST(ParallelDeterminism, CoNntActor) {
  expect_thread_invariant(
      "connt-actor", [](std::uint64_t seed, std::size_t threads) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        nnt::CoNntOptions options;
        configure(options, threads, &telemetry);
        const auto run = nnt::run_connt_actor(topo, options);
        return observe(run.report(), run.tree, sink);
      });
}

}  // namespace
}  // namespace emst
