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
#include "emst/support/rng.hpp"
#include "observed_run.hpp"

namespace emst {
namespace {

constexpr std::size_t kNodes = 160;
constexpr std::size_t kSeeds = 10;
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

sim::Topology make_topology(std::uint64_t seed,
                            std::vector<geometry::Point2>& points) {
  support::Rng rng(seed);
  points = geometry::uniform_points(kNodes, rng);
  return sim::Topology(points, rgg::connectivity_radius(kNodes));
}

/// The shared knobs of every run here: both ledgers, the thread count and
/// the telemetry hub.
sim::RunConfig configure(std::size_t threads, sim::Telemetry* telemetry) {
  sim::RunConfig cfg;
  cfg.track_per_node_energy = true;
  cfg.record_breakdown = true;
  cfg.threads = threads;
  cfg.telemetry = telemetry;
  return cfg;
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
        EXPECT_FALSE(baseline.run.tree.empty())
            << label << " seed " << seed << ": empty tree";
        continue;
      }
      SCOPED_TRACE(testing::Message() << label << " seed=" << seed
                                      << " threads=" << threads);
      expect_observed_equal(got, baseline);
    }
  }
}

TEST(ParallelDeterminism, ClassicGhs) {
  expect_thread_invariant("ghs", [](std::uint64_t seed, std::size_t threads) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    const auto run =
        ghs::run_classic_ghs(topo, configure(threads, &telemetry));
    return observe(run, sink, topo.node_count());
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
        const auto run = ghs::run_classic_ghs(
            topo, configure(threads, &telemetry), options);
        return observe(run, sink, topo.node_count());
      });
}

TEST(ParallelDeterminism, SyncGhs) {
  expect_thread_invariant("sync", [](std::uint64_t seed, std::size_t threads) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    const auto run = ghs::run_sync_ghs(topo, configure(threads, &telemetry));
    return observe(run.run, sink, topo.node_count());
  });
}

TEST(ParallelDeterminism, SyncGhsProbeFaultyArq) {
  expect_thread_invariant(
      "sync-probe+faults", [](std::uint64_t seed, std::size_t threads) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        sim::RunConfig cfg = configure(threads, &telemetry);
        cfg.faults = faulty_model();
        cfg.faults.seed += seed;
        cfg.arq.enabled = true;
        ghs::SyncGhsOptions options;
        options.neighbor_cache = false;
        const auto run = ghs::run_sync_ghs(topo, cfg, options);
        return observe(run.run, sink, topo.node_count());
      });
}

TEST(ParallelDeterminism, Eopt) {
  expect_thread_invariant("eopt", [](std::uint64_t seed, std::size_t threads) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    const auto run = eopt::run_eopt(topo, configure(threads, &telemetry));
    return observe(run.run, sink, topo.node_count());
  });
}

TEST(ParallelDeterminism, EoptFaultyArq) {
  expect_thread_invariant(
      "eopt+faults", [](std::uint64_t seed, std::size_t threads) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        sim::RunConfig cfg = configure(threads, &telemetry);
        cfg.faults = faulty_model();
        cfg.faults.seed += seed;
        cfg.arq.enabled = true;
        const auto run = eopt::run_eopt(topo, cfg);
        return observe(run.run, sink, topo.node_count());
      });
}

TEST(ParallelDeterminism, CoNnt) {
  expect_thread_invariant("connt", [](std::uint64_t seed, std::size_t threads) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    const auto run = nnt::run_connt(topo, configure(threads, &telemetry));
    return observe(run, sink, topo.node_count());
  });
}

TEST(ParallelDeterminism, CoNntActor) {
  expect_thread_invariant(
      "connt-actor", [](std::uint64_t seed, std::size_t threads) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        const auto run =
            nnt::run_connt_actor(topo, configure(threads, &telemetry));
        return observe(run, sink, topo.node_count());
      });
}

}  // namespace
}  // namespace emst
