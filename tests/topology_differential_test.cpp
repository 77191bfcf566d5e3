// Backend differential: implicit vs materialized topology (docs/PERF.md).
//
// The contract: `sim::ImplicitTopology` is a drop-in for `sim::Topology`.
// For the same point set and radius, every backend-generic driver (sync
// GHS, EOPT, choreographed Co-NNT) must produce the SAME observable result
// on both backends — tree (weights bitwise), accounting (float energy
// bitwise), phases, fault/ARQ counters, per-node ledger, breakdown matrix,
// and the complete telemetry event stream — at every thread count, with
// and without faults+ARQ. Equality assertions, not tolerances: one flipped
// bit fails. The network engines compile for the CSR only; the classic GHS
// and Co-NNT actor cases check that `emst::run` serves those drivers to an
// implicit-backend caller from the CSR.
//
// The enumeration layer is pinned separately: `neighbors`, `neighbors_within`
// and `nodes_within` must yield identical sequences (ids in order, weights
// bitwise), and `reach_within` / `lightest_within` must equal the same
// reductions over the sorted span — which is what makes the driver-level
// identity possible at all.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/run.hpp"
#include "emst/sim/implicit_topology.hpp"
#include "emst/sim/topology.hpp"
#include "emst/support/rng.hpp"
#include "observed_run.hpp"

namespace emst {
namespace {

constexpr std::size_t kNodes = 160;
constexpr std::size_t kSeeds = 10;
constexpr std::size_t kThreadCounts[] = {1, 2, 4};

std::vector<geometry::Point2> make_points(std::uint64_t seed,
                                          std::size_t n = kNodes) {
  support::Rng rng(seed);
  return geometry::uniform_points(n, rng);
}

// --- Enumeration-layer equivalence ---------------------------------------

TEST(TopologyBackends, NeighborEnumerationIsIdentical) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto points = make_points(seed);
    const double radius = rgg::connectivity_radius(kNodes);
    const sim::Topology mat(points, radius);
    const sim::ImplicitTopology imp(points, radius);
    ASSERT_EQ(mat.node_count(), imp.node_count());
    EXPECT_EQ(mat.edge_count(), imp.edge_count());
    for (sim::NodeId u = 0; u < mat.node_count(); ++u) {
      const auto want = mat.neighbors(u);
      const auto got = imp.neighbors(u);
      ASSERT_EQ(got.size(), want.size()) << "node " << u << " seed " << seed;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "node " << u << " slot " << i;
        EXPECT_EQ(got[i].w, want[i].w) << "node " << u << " slot " << i;
      }
    }
  }
}

/// neighbors_within(u, r) and nodes_within(u, r) agree between backends:
/// ids in order, weights bitwise.
testing::AssertionResult same_within(const sim::Topology& mat,
                                     const sim::ImplicitTopology& imp,
                                     sim::NodeId u, double r) {
  const auto want = mat.neighbors_within(u, r);
  const auto got = imp.neighbors_within(u, r);
  if (got.size() != want.size()) {
    return testing::AssertionFailure()
           << "node " << u << " r " << r << ": "
           << got.size() << " neighbours, want " << want.size();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i].id != want[i].id || got[i].w != want[i].w) {
      return testing::AssertionFailure()
             << "node " << u << " r " << r << " slot " << i;
    }
  }
  if (imp.nodes_within(u, r) != mat.nodes_within(u, r)) {
    return testing::AssertionFailure()
           << "nodes_within: node " << u << " r " << r;
  }
  return testing::AssertionSuccess();
}

TEST(TopologyBackends, SubRadiusQueriesAreIdentical) {
  // Sub-radius enumeration (the EOPT Step-1 path) and the Co-NNT probe
  // query must agree too, including at the radius boundaries: exactly at and
  // one ulp below the topology radius, and at every neighbour's exact weight
  // and one ulp either side of it. A grid scan at exactly r would lose the
  // neighbour whose weight is r (w = fl(√d²) <= r does not imply
  // d² <= fl(r²)); the implicit backend's scan slack must keep it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto points = make_points(3);
  const double radius = rgg::connectivity_radius(kNodes);
  const sim::Topology mat(points, radius);
  const sim::ImplicitTopology imp(points, radius);
  const double radii[] = {radius / 4, radius / 2, radius * 0.99,
                          std::nextafter(radius, 0.0), radius};
  for (sim::NodeId u = 0; u < mat.node_count(); ++u) {
    for (const double r : radii) ASSERT_TRUE(same_within(mat, imp, u, r));
    for (const graph::Neighbor& nb : mat.neighbors(u)) {
      for (const double r :
           {std::nextafter(nb.w, 0.0), nb.w, std::nextafter(nb.w, kInf)}) {
        ASSERT_TRUE(same_within(mat, imp, u, r));
      }
    }
  }

  // EOPT's own Step-1 radius r₁ ≈ 0.3·r₂ at this size, so the query disc
  // covers a few cells of the r₂-sized grid rather than the whole 3×3
  // block; again at r₁ and at every weight inside it, each ± one ulp.
  constexpr std::size_t kWide = 4000;
  const auto wide_points = make_points(3, kWide);
  const double r2 = rgg::connectivity_radius(kWide);
  const double r1 =
      rgg::percolation_radius(kWide, eopt::EoptOptions{}.step1_factor);
  ASSERT_LT(r1, 0.35 * r2);
  const sim::Topology wide_mat(wide_points, r2);
  const sim::ImplicitTopology wide_imp(wide_points, r2);
  for (sim::NodeId u = 0; u < wide_mat.node_count(); ++u) {
    ASSERT_TRUE(same_within(wide_mat, wide_imp, u, r1));
    for (const graph::Neighbor& nb : wide_mat.neighbors_within(u, r1)) {
      for (const double r :
           {std::nextafter(nb.w, 0.0), nb.w, std::nextafter(nb.w, kInf)}) {
        ASSERT_TRUE(same_within(wide_mat, wide_imp, u, r));
      }
    }
  }
}

/// reach_within and lightest_within on `topo` equal the same reductions over
/// the sorted span the CSR returns for neighbors_within(u, r): the count and
/// last element bitwise, and the first element that passes each predicate.
template <typename Topo, typename KeepSet>
testing::AssertionResult reductions_match(const sim::Topology& mat,
                                          const Topo& topo, sim::NodeId u,
                                          double r, const KeepSet& keeps) {
  const auto span = mat.neighbors_within(u, r);
  const graph::Reach reach = topo.reach_within(u, r);
  const graph::Neighbor last =
      span.empty() ? graph::Reach{}.farthest : span.back();
  if (reach.count != span.size() || reach.farthest.id != last.id ||
      std::bit_cast<std::uint64_t>(reach.farthest.w) !=
          std::bit_cast<std::uint64_t>(last.w)) {
    return testing::AssertionFailure()
           << "reach_within: node " << u << " r " << r << ": {"
           << reach.count << ", " << reach.farthest.id << "}, want {"
           << span.size() << ", " << last.id << "}";
  }
  for (std::size_t k = 0; k < keeps.size(); ++k) {
    const auto& keep = keeps[k];
    const graph::Neighbor* want = nullptr;
    for (const graph::Neighbor& nb : span) {
      if (keep(nb.id)) {
        want = &nb;
        break;
      }
    }
    const auto got = topo.lightest_within(u, r, keep);
    const bool same =
        want == nullptr
            ? !got.has_value()
            : got.has_value() && got->id == want->id &&
                  std::bit_cast<std::uint64_t>(got->w) ==
                      std::bit_cast<std::uint64_t>(want->w);
    if (!same) {
      return testing::AssertionFailure()
             << "lightest_within: node " << u << " r " << r << " keep #" << k
             << ": got " << (got ? static_cast<long long>(got->id) : -1)
             << ", want "
             << (want != nullptr ? static_cast<long long>(want->id) : -1);
    }
  }
  return testing::AssertionSuccess();
}

TEST(TopologyBackends, ReductionsMatchTheSortedSpan) {
  // The order-free reductions behind fault-free sync GHS: on both backends,
  // for every node, at the radii SubRadiusQueriesAreIdentical sweeps, under
  // keep predicates that accept everything, nothing, one id parity and one
  // side of a random fragment labelling.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto check_instance = [&](std::size_t n, std::uint64_t seed,
                            auto&& radii_for) {
    const auto points = make_points(seed, n);
    const double radius = rgg::connectivity_radius(n);
    const sim::Topology mat(points, radius);
    const sim::ImplicitTopology imp(points, radius);
    support::Rng rng(seed * 977 + n);
    std::vector<std::uint32_t> label(n);
    for (auto& l : label) l = static_cast<std::uint32_t>(rng.uniform() * 8.0);
    for (sim::NodeId u = 0; u < n; ++u) {
      const std::vector<std::function<bool(sim::NodeId)>> keeps = {
          [](sim::NodeId) { return true; },
          [](sim::NodeId) { return false; },
          [](sim::NodeId v) { return v % 2 == 0; },
          [&](sim::NodeId v) { return label[v] != label[u]; },
      };
      for (const double r : radii_for(mat, u, radius)) {
        ASSERT_TRUE(reductions_match(mat, mat, u, r, keeps));
        ASSERT_TRUE(reductions_match(mat, imp, u, r, keeps));
      }
    }
  };
  auto with_weights = [&](std::vector<double> radii,
                          std::span<const graph::Neighbor> nbs) {
    for (const graph::Neighbor& nb : nbs) {
      radii.push_back(std::nextafter(nb.w, 0.0));
      radii.push_back(nb.w);
      radii.push_back(std::nextafter(nb.w, kInf));
    }
    return radii;
  };
  check_instance(kNodes, 3,
                 [&](const sim::Topology& mat, sim::NodeId u, double radius) {
                   return with_weights(
                       {radius / 4, radius / 2, radius * 0.99,
                        std::nextafter(radius, 0.0), radius, kInf},
                       mat.neighbors(u));
                 });
  // EOPT's Step-1 radius r₁ on the 4000-node instance, and every weight
  // inside it ± one ulp.
  constexpr std::size_t kWide = 4000;
  const double r1 =
      rgg::percolation_radius(kWide, eopt::EoptOptions{}.step1_factor);
  check_instance(kWide, 3,
                 [&](const sim::Topology& mat, sim::NodeId u, double) {
                   return with_weights({r1}, mat.neighbors_within(u, r1));
                 });
}

// --- Driver-level equivalence --------------------------------------------

/// The shared knobs of every driver run here: both ledgers, the thread
/// count and the telemetry hub.
sim::RunConfig configure(std::size_t threads, sim::Telemetry* telemetry) {
  sim::RunConfig cfg;
  cfg.track_per_node_energy = true;
  cfg.record_breakdown = true;
  cfg.threads = threads;
  cfg.telemetry = telemetry;
  return cfg;
}

/// Runs `run_at(topo, seed, threads)` on both backends over the full seed ×
/// thread matrix and asserts the Observed results are identical.
template <typename RunFn>
void expect_backend_invariant(const char* label, double radius_factor,
                              RunFn&& run_at) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto points = make_points(seed);
    const double radius = rgg::connectivity_radius(kNodes, radius_factor);
    const sim::Topology mat(points, radius);
    const sim::ImplicitTopology imp(points, radius);
    for (const std::size_t threads : kThreadCounts) {
      const Observed want = run_at(mat, seed, threads);
      const Observed got = run_at(imp, seed, threads);
      EXPECT_FALSE(want.run.tree.empty())
          << label << " seed " << seed << ": empty tree";
      SCOPED_TRACE(testing::Message() << label << " seed=" << seed
                                      << " threads=" << threads);
      expect_observed_equal(got, want);
    }
  }
}

/// The drivers that run on the network engine (classic GHS, the Co-NNT
/// actor) through the facade: handed a sim::ImplicitTopology, they build
/// the CSR of the same points and radius, so everything the run exposes
/// must equal a run on the caller's CSR. Neither reads `threads`, so each
/// seed runs once; `tune(cfg, seed)` sets the case's knobs.
template <typename Tune>
void expect_facade_serves_csr(Driver driver, Tune&& tune) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto points = make_points(seed);
    const double radius = rgg::connectivity_radius(kNodes, 1.6);
    const sim::Topology mat(points, radius);
    const sim::ImplicitTopology imp(points, radius);
    const auto observe_on = [&](const auto& topo) {
      sim::MemoryTraceSink sink;
      sim::Telemetry telemetry(&sink);
      RunConfig cfg = config_for(driver);
      cfg.track_per_node_energy = true;
      cfg.record_breakdown = true;
      cfg.telemetry = &telemetry;
      tune(cfg, seed);
      return observe(emst::run(topo, cfg), sink, topo.node_count());
    };
    const Observed want = observe_on(mat);
    EXPECT_FALSE(want.run.tree.empty())
        << driver_name(driver) << " seed " << seed << ": empty tree";
    EXPECT_GT(want.run.handler_invocations, 0u)
        << driver_name(driver) << " seed " << seed << ": no actor ran";
    SCOPED_TRACE(testing::Message() << driver_name(driver) << " seed=" << seed);
    expect_observed_equal(observe_on(imp), want);
  }
}

TEST(BackendDifferential, ClassicGhs) {
  expect_facade_serves_csr(Driver::kClassicGhs,
                           [](RunConfig&, std::uint64_t) {});
}

TEST(BackendDifferential, ClassicGhsCachedWithDelays) {
  expect_facade_serves_csr(Driver::kClassicGhsCached,
                           [](RunConfig& cfg, std::uint64_t seed) {
                             cfg.classic.delays = {3, 0xabc0ULL + seed};
                           });
}

TEST(BackendDifferential, SyncGhs) {
  expect_backend_invariant(
      "sync", 1.6, [](const auto& topo, std::uint64_t, std::size_t threads) {
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        const auto run =
            ghs::run_sync_ghs(topo, configure(threads, &telemetry));
        return observe(run.run, sink, topo.node_count());
      });
}

TEST(BackendDifferential, SyncGhsProbeFaultyArq) {
  expect_backend_invariant(
      "sync-probe+faults", 1.6,
      [](const auto& topo, std::uint64_t seed, std::size_t threads) {
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

TEST(BackendDifferential, Eopt) {
  expect_backend_invariant(
      "eopt", 1.6, [](const auto& topo, std::uint64_t, std::size_t threads) {
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        const auto run = eopt::run_eopt(topo, configure(threads, &telemetry));
        return observe(run.run, sink, topo.node_count());
      });
}

TEST(BackendDifferential, EoptFaultyArq) {
  expect_backend_invariant(
      "eopt+faults", 1.6,
      [](const auto& topo, std::uint64_t seed, std::size_t threads) {
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

TEST(BackendDifferential, CoNnt) {
  expect_backend_invariant(
      "connt", 1.6, [](const auto& topo, std::uint64_t, std::size_t threads) {
        sim::MemoryTraceSink sink;
        sim::Telemetry telemetry(&sink);
        const auto run = nnt::run_connt(topo, configure(threads, &telemetry));
        return observe(run, sink, topo.node_count());
      });
}

TEST(BackendDifferential, CoNntActor) {
  // A crash-only fault model sends Co-NNT to its actor: one node down from
  // the start and one mid-run, both back later.
  expect_facade_serves_csr(Driver::kCoNnt, [](RunConfig& cfg, std::uint64_t) {
    cfg.faults.crashes = {{.node = 23, .from = 0, .until = 12},
                          {.node = 7, .from = 4, .until = 18}};
  });
}

}  // namespace
}  // namespace emst
