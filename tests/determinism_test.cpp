// Determinism guarantees of the fault layer (docs/ROBUSTNESS.md, satellite
// of the robustness PR): identical seeds produce byte-identical executions.
//
//  - The calendar-queue and reference engines, driven by one schedule under
//    combined faults (Bernoulli + Gilbert–Elliott + crash windows + random
//    delays), deliver byte-identical sequences and meter totals — loss fates
//    are drawn at send time in global send order precisely so both engines
//    agree despite delivering in different internal orders.
//  - Re-running any fault-aware engine with the same seeds reproduces the
//    exact delivery log, meter, and protocol result.
//  - Different fault seeds genuinely change the execution (the knob is live).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/network.hpp"
#include "emst/support/rng.hpp"
#include "reference_network.hpp"

namespace emst::sim {
namespace {

using Msg = std::uint64_t;
using Trace = std::vector<std::tuple<NodeId, NodeId, double, Msg>>;

constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();

FaultModel hostile_faults(std::uint64_t seed) {
  FaultModel faults;
  faults.loss = 0.15;
  faults.use_gilbert = true;   // default burst parameters
  faults.crashes = {{3, 5, 20}, {11, 10, kForever}, {7, 0, 4}};
  faults.seed = seed;
  return faults;
}

/// Replay one deterministic random schedule through `net`, returning the
/// full delivery trace. The schedule depends only on `schedule_seed`.
template <typename Net>
Trace run_schedule(Net& net, const Topology& topo, std::uint64_t schedule_seed) {
  support::Rng rng(schedule_seed);
  const std::size_t n = topo.node_count();
  Trace trace;
  std::uint64_t payload = 0;
  for (int round = 0; round < 120; ++round) {
    if (round < 60) {
      const std::uint64_t ops = rng.uniform_int(16);
      for (std::uint64_t k = 0; k < ops; ++k) {
        const auto u = static_cast<NodeId>(rng.uniform_int(n));
        if (rng.uniform() < 0.3) {
          net.broadcast(u, rng.uniform(0.0, topo.max_radius()), payload++);
        } else {
          const auto nbs = topo.neighbors(u);
          if (nbs.empty()) continue;
          net.unicast(u, nbs[rng.uniform_int(nbs.size())].id, payload++);
        }
      }
    }
    for (const auto& d : net.collect_round())
      trace.emplace_back(d.from, d.to, d.distance, d.msg);
    if (round >= 60 && !net.pending()) break;
  }
  EXPECT_FALSE(net.pending());
  return trace;
}

void expect_same_accounting(const Accounting& a, const Accounting& b) {
  EXPECT_EQ(a.energy, b.energy);  // bit-identical, not EXPECT_NEAR
  EXPECT_EQ(a.unicasts, b.unicasts);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.rounds, b.rounds);
}

void expect_same_fault_stats(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.dropped_crashed, b.dropped_crashed);
  EXPECT_EQ(a.suppressed, b.suppressed);
}

TEST(Determinism, EnginesAgreeByteForByteUnderCombinedFaults) {
  const std::size_t n = 200;
  support::Rng rng(909);
  const Topology topo(geometry::uniform_points(n, rng),
                      rgg::connectivity_radius(n));
  for (const std::uint32_t delay : {0u, 3u}) {
    const DelayModel delays{delay, 0xabcULL};
    const FaultModel faults = hostile_faults(0xfee1ULL);
    Network<Msg> calendar(topo, {}, false, delays, faults);
    ReferenceNetwork<Msg> reference(topo, {}, false, delays, faults);
    const Trace got = run_schedule(calendar, topo, 1234);
    const Trace want = run_schedule(reference, topo, 1234);
    ASSERT_EQ(got, want) << "delay=" << delay;
    expect_same_accounting(calendar.meter().totals(),
                           reference.meter().totals());
    expect_same_fault_stats(calendar.fault_stats(), reference.fault_stats());
    EXPECT_GT(calendar.fault_stats().lost, 0u);
    EXPECT_GT(calendar.fault_stats().dropped_crashed, 0u);
  }
}

TEST(Determinism, SameSeedsReproduceTheExactTrace) {
  const std::size_t n = 150;
  support::Rng rng(911);
  const Topology topo(geometry::uniform_points(n, rng),
                      rgg::connectivity_radius(n));
  const DelayModel delays{2, 0x77ULL};
  const FaultModel faults = hostile_faults(42);
  Network<Msg> first(topo, {}, false, delays, faults);
  Network<Msg> second(topo, {}, false, delays, faults);
  EXPECT_EQ(run_schedule(first, topo, 555), run_schedule(second, topo, 555));
  expect_same_accounting(first.meter().totals(), second.meter().totals());
  expect_same_fault_stats(first.fault_stats(), second.fault_stats());
}

TEST(Determinism, DifferentFaultSeedsChangeTheTrace) {
  const std::size_t n = 150;
  support::Rng rng(912);
  const Topology topo(geometry::uniform_points(n, rng),
                      rgg::connectivity_radius(n));
  FaultModel faults_a = hostile_faults(1);
  FaultModel faults_b = hostile_faults(2);
  Network<Msg> a(topo, {}, false, {}, faults_a);
  Network<Msg> b(topo, {}, false, {}, faults_b);
  EXPECT_NE(run_schedule(a, topo, 555), run_schedule(b, topo, 555));
}

TEST(Determinism, FaultAwareEoptIsReproducible) {
  support::Rng rng(913);
  const Topology topo =
      eopt::eopt_topology(geometry::uniform_points(300, rng));
  sim::RunConfig cfg;
  cfg.faults.loss = 0.08;
  cfg.faults.use_gilbert = true;
  cfg.faults.seed = 0xeeeULL;
  cfg.arq.enabled = true;
  const auto first = eopt::run_eopt(topo, cfg);
  const auto second = eopt::run_eopt(topo, cfg);
  EXPECT_TRUE(graph::same_edge_set(first.run.tree, second.run.tree));
  expect_same_accounting(first.run.totals, second.run.totals);
  EXPECT_EQ(first.run.arq.data_sent, second.run.arq.data_sent);
  EXPECT_EQ(first.run.arq.retransmissions, second.run.arq.retransmissions);
  EXPECT_EQ(first.run.arq.acks_sent, second.run.arq.acks_sent);
  EXPECT_EQ(first.run.arq.give_ups, second.run.arq.give_ups);
  EXPECT_EQ(first.run.faults.lost, second.run.faults.lost);
  EXPECT_EQ(first.run.faults.dropped_crashed,
            second.run.faults.dropped_crashed);
  EXPECT_GT(first.run.faults.lost, 0u);
}

}  // namespace
}  // namespace emst::sim
