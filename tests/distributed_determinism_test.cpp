// Cross-process determinism at the driver level (docs/DISTRIBUTED.md).
//
// The contract: `RunConfig::ranks` changes the execution substrate only.
// ranks=0 runs a driver on the in-process serial engine (`sim::Network`);
// ranks>=1 runs the engine-driven drivers (classic GHS, Co-NNT actor) over
// `sim::DistributedNetwork` — forked rank processes, every message crossing
// a real socketpair as proto-codec bytes. For every driver, every seed,
// with and without faults, the full observable result — tree, accounting
// (float energy bitwise), phases, fault/ARQ counters, per-node ledger,
// breakdown matrix, and the complete telemetry event stream — must be
// identical at rank counts {0, 1, 2, 4}. A single flipped bit anywhere
// fails the run: these are equality assertions, not tolerances. (The
// choreographed drivers — sync GHS, EOPT — compute message behaviour in
// lockstep without an engine; for them ranks is a documented no-op, pinned
// here so the knob can never silently change their results.)
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/chaos.hpp"
#include "emst/support/rng.hpp"
#include "observed_run.hpp"

namespace emst {
namespace {

constexpr std::size_t kNodes = 120;
constexpr std::size_t kSeeds = 3;
/// 0 = the serial in-process engine — the reference every rank count must
/// reproduce byte-for-byte.
constexpr std::size_t kRankCounts[] = {0, 1, 2, 4};

sim::Topology make_topology(std::uint64_t seed,
                            std::vector<geometry::Point2>& points) {
  support::Rng rng(seed);
  points = geometry::uniform_points(kNodes, rng);
  return sim::Topology(points, rgg::connectivity_radius(kNodes));
}

/// Crash-window fault configuration — works on every driver (loss and ARQ
/// need the loss-recovering engines, exercised in the sync/EOPT cases).
sim::FaultModel crashy_model() {
  sim::FaultModel faults;
  faults.crashes.push_back({7, 4, 18});
  faults.crashes.push_back({23, 0, 12});
  faults.crashes.push_back({41, 9, 26});
  return faults;
}

/// The shared knobs of every run here: both ledgers, the rank count and
/// the telemetry hub.
sim::RunConfig configure(std::size_t ranks, sim::Telemetry* telemetry) {
  sim::RunConfig cfg;
  cfg.track_per_node_energy = true;
  cfg.record_breakdown = true;
  cfg.ranks = ranks;
  cfg.telemetry = telemetry;
  return cfg;
}

template <typename RunFn>
void expect_rank_invariant(const char* label, RunFn&& run_at) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Observed baseline;
    bool have_baseline = false;
    for (const std::size_t ranks : kRankCounts) {
      const Observed got = run_at(seed, ranks);
      if (!have_baseline) {
        baseline = got;
        have_baseline = true;
        EXPECT_FALSE(baseline.run.tree.empty())
            << label << " seed " << seed << ": empty tree";
        continue;
      }
      SCOPED_TRACE(testing::Message() << label << " seed=" << seed
                                      << " ranks=" << ranks);
      expect_observed_equal(got, baseline);
    }
  }
}

/// Execution-placement witness (docs/DISTRIBUTED.md §2): with ranks the
/// handlers must have executed inside the rank workers and never in the
/// parent; serially it is exactly the other way around. The split is
/// placement metadata and stays OUT of the Observed equality; only the sum
/// is placement-free (`expect_same_run` compares it).
void expect_placement(std::uint64_t parent_invocations,
                      std::uint64_t rank_invocations, std::size_t ranks) {
  if (ranks > 0) {
    EXPECT_GT(rank_invocations, 0u) << "ranks=" << ranks;
    EXPECT_EQ(parent_invocations, 0u) << "ranks=" << ranks;
  } else {
    EXPECT_GT(parent_invocations, 0u);
    EXPECT_EQ(rank_invocations, 0u);
  }
}

TEST(DistributedDeterminism, ClassicGhs) {
  expect_rank_invariant("ghs", [](std::uint64_t seed, std::size_t ranks) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    const auto run =
        ghs::run_classic_ghs(topo, configure(ranks, &telemetry));
    expect_placement(run.handler_invocations, run.rank_handler_invocations,
                     ranks);
    return observe(run, sink, topo.node_count());
  });
}

TEST(DistributedDeterminism, ClassicGhsCachedWithDelays) {
  // Random per-message delays exercise each rank's multi-bucket calendar
  // ring and FIFO clamp; the cached-MOE variant adds local broadcasts.
  expect_rank_invariant(
      "ghs-cached", [](std::uint64_t seed, std::size_t ranks) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        ghs::ClassicGhsOptions options;
        options.moe = ghs::MoeStrategy::kCachedConfirm;
        options.delays = {3, 0xabc0ULL + seed};
        const auto run = ghs::run_classic_ghs(
            topo, configure(ranks, &telemetry), options);
        return observe(run, sink, topo.node_count());
      });
}

TEST(DistributedDeterminism, ClassicGhsCrashWindows) {
  // Suppressions and crash drops are classified in the parent, where the
  // fault clock lives; the event stream must interleave identically.
  expect_rank_invariant(
      "ghs+crashes", [](std::uint64_t seed, std::size_t ranks) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        sim::RunConfig cfg = configure(ranks, &telemetry);
        cfg.faults = crashy_model();
        cfg.faults.seed += seed;
        const auto run = ghs::run_classic_ghs(topo, cfg);
        return observe(run, sink, topo.node_count());
      });
}

TEST(DistributedDeterminism, SyncGhsRanksIsNoOp) {
  // Choreographed driver: no engine, so ranks must change NOTHING.
  expect_rank_invariant("sync", [](std::uint64_t seed, std::size_t ranks) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    sim::MemoryTraceSink sink;
    sim::Telemetry telemetry(&sink);
    const auto run = ghs::run_sync_ghs(topo, configure(ranks, &telemetry));
    return observe(run.run, sink, topo.node_count());
  });
}

TEST(DistributedDeterminism, SyncGhsProbeFaultyArqRanksIsNoOp) {
  expect_rank_invariant(
      "sync-probe+faults", [](std::uint64_t seed, std::size_t ranks) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        sim::RunConfig cfg = configure(ranks, &telemetry);
        cfg.faults = faulty_model();
        cfg.faults.seed += seed;
        cfg.arq.enabled = true;
        ghs::SyncGhsOptions options;
        options.neighbor_cache = false;
        const auto run = ghs::run_sync_ghs(topo, cfg, options);
        return observe(run.run, sink, topo.node_count());
      });
}

TEST(DistributedDeterminism, EoptFaultyArqRanksIsNoOp) {
  expect_rank_invariant(
      "eopt+faults", [](std::uint64_t seed, std::size_t ranks) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        sim::RunConfig cfg = configure(ranks, &telemetry);
        cfg.faults = faulty_model();
        cfg.faults.seed += seed;
        cfg.arq.enabled = true;
        const auto run = eopt::run_eopt(topo, cfg);
        return observe(run.run, sink, topo.node_count());
      });
}

TEST(DistributedDeterminism, CoNntFacadeDispatch) {
  // run_connt with ranks>0 dispatches to the actor execution — the engine
  // is where rank processes exist. The actor runs must be bitwise
  // identical to each other at every rank count, and must produce the SAME
  // TREE as the ranks=0 choreographed execution (whose event stream is
  // shaped differently by design — billed per logical message, not per
  // in-flight one — so only the result is compared across executions).
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::vector<geometry::Point2> points;
    const sim::Topology topo = make_topology(seed, points);
    auto run_at = [&topo](std::size_t ranks, sim::MemoryTraceSink& sink) {
      sim::Telemetry telemetry(&sink);
      const auto run = nnt::run_connt(topo, configure(ranks, &telemetry));
      return observe(run, sink, topo.node_count());
    };
    sim::MemoryTraceSink sink0;
    const Observed choreographed = run_at(0, sink0);
    EXPECT_FALSE(choreographed.run.tree.empty());
    Observed baseline;
    bool have_baseline = false;
    for (const std::size_t ranks : {1u, 2u, 4u}) {
      sim::MemoryTraceSink sink;
      const Observed got = run_at(ranks, sink);
      const std::vector<graph::Edge>& tree = got.run.tree;
      const std::vector<graph::Edge>& want = choreographed.run.tree;
      ASSERT_EQ(tree.size(), want.size())
          << "connt seed=" << seed << " ranks=" << ranks;
      for (std::size_t i = 0; i < tree.size(); ++i) {
        EXPECT_EQ(tree[i].u, want[i].u);
        EXPECT_EQ(tree[i].v, want[i].v);
        EXPECT_EQ(tree[i].w, want[i].w);
      }
      if (!have_baseline) {
        baseline = got;
        have_baseline = true;
        continue;
      }
      SCOPED_TRACE(testing::Message() << "connt seed=" << seed
                                      << " ranks=" << ranks);
      expect_observed_equal(got, baseline);
    }
  }
}

TEST(DistributedDeterminism, CoNntActor) {
  expect_rank_invariant(
      "connt-actor", [](std::uint64_t seed, std::size_t ranks) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        const auto run =
            nnt::run_connt_actor(topo, configure(ranks, &telemetry));
        expect_placement(run.handler_invocations, run.rank_handler_invocations,
                         ranks);
        return observe(run, sink, topo.node_count());
      });
}

TEST(DistributedDeterminism, CoNntActorCrashWindows) {
  expect_rank_invariant(
      "connt-actor+crashes", [](std::uint64_t seed, std::size_t ranks) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        sim::RunConfig cfg = configure(ranks, &telemetry);
        cfg.faults = crashy_model();
        cfg.faults.seed += seed;
        const auto run = nnt::run_connt_actor(topo, cfg);
        return observe(run, sink, topo.node_count());
      });
}

// ---------------------------------------------------------------------------
// Chaos strategies in the rank matrix. The adversarial controller is
// consulted ONLY from the parent's serial sections (it owns the fault
// clock); in actor mode the injected windows ship to the ranks inside the
// round's final ACTOR_ROUND chunk. The injected schedule and every
// downstream observable must therefore be rank-invariant. Controllers are
// stateful — one instance drives one run — so each run constructs a fresh
// one.
// ---------------------------------------------------------------------------

TEST(DistributedDeterminism, ClassicGhsKillLeaderChaos) {
  expect_rank_invariant(
      "ghs+kill_leader", [](std::uint64_t seed, std::size_t ranks) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        sim::KillLeader controller;
        sim::RunConfig cfg = configure(ranks, &telemetry);
        cfg.faults.controller = &controller;
        cfg.faults.seed = 0xc0a0ULL + seed;
        const auto run = ghs::run_classic_ghs(topo, cfg);
        expect_placement(run.handler_invocations,
                         run.rank_handler_invocations, ranks);
        return observe(run, sink, topo.node_count());
      });
}

TEST(DistributedDeterminism, CoNntActorPartitionHalfChaos) {
  expect_rank_invariant(
      "connt+partition_half", [](std::uint64_t seed, std::size_t ranks) {
        std::vector<geometry::Point2> points;
        const sim::Topology topo = make_topology(seed, points);
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        sim::PartitionHalf controller(/*at_round=*/4);
        sim::RunConfig cfg = configure(ranks, &telemetry);
        cfg.faults.controller = &controller;
        cfg.faults.seed = 0x9a17ULL + seed;
        const auto run = nnt::run_connt_actor(topo, cfg);
        expect_placement(run.handler_invocations,
                         run.rank_handler_invocations, ranks);
        return observe(run, sink, topo.node_count());
      });
}

}  // namespace
}  // namespace emst
