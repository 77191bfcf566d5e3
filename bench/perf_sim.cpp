// google-benchmark for the simulator's message engine: the calendar-queue
// sim::Network on the enqueue and collect_round paths, synchronous and
// delayed, at 1k / 10k / 100k messages. Every pump run aborts if the engine
// loses a message.
//
// scripts/bench_perf.sh runs this binary and writes BENCH_sim.json at the
// repo root so the perf trajectory is tracked in-tree; docs/PERF.md explains
// how to read it: compare the rows across commits on one host.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "emst/rgg/radii.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/sim/network.hpp"
#include "emst/support/rng.hpp"

namespace {

using namespace emst;

using Payload = std::uint64_t;
using Net = sim::Network<Payload>;
constexpr std::size_t kNodes = 4096;
constexpr std::size_t kMaxMessages = 100000;
constexpr std::size_t kSendRounds = 32;

struct World {
  sim::Topology topo;
  std::vector<std::pair<sim::NodeId, sim::NodeId>> sched;  ///< in-range pairs
};

const World& world() {
  static World w = [] {
    support::Rng rng(2026);
    const auto points = geometry::uniform_points(kNodes, rng);
    sim::Topology topo(points, rgg::connectivity_radius(kNodes));
    std::vector<std::pair<sim::NodeId, sim::NodeId>> sched;
    sched.reserve(kMaxMessages);
    while (sched.size() < kMaxMessages) {
      const auto u = static_cast<sim::NodeId>(rng.uniform_int(kNodes));
      const auto nbs = topo.neighbors(u);
      if (nbs.empty()) continue;
      sched.emplace_back(u, nbs[rng.uniform_int(nbs.size())].id);
    }
    return World{std::move(topo), std::move(sched)};
  }();
  return w;
}

sim::DelayModel delay_model(std::uint32_t max_extra_delay) {
  return {max_extra_delay, 0xbe7cULL};
}

/// Steady-state workload: send messages over kSendRounds rounds, collecting
/// each round, then drain. This is the shape every GHS/EOPT/NNT run has —
/// the in-flight set persists across rounds.
void BM_CalendarPump(benchmark::State& state) {
  const auto messages = static_cast<std::size_t>(state.range(0));
  const auto delay = static_cast<std::uint32_t>(state.range(1));
  const World& w = world();
  const std::size_t per_round = (messages + kSendRounds - 1) / kSendRounds;
  for (auto _ : state) {
    Net net(w.topo, {}, false, delay_model(delay));
    std::size_t sent = 0;
    std::size_t delivered = 0;
    while (sent < messages || net.pending()) {
      const std::size_t stop = std::min(messages, sent + per_round);
      for (; sent < stop; ++sent)
        net.unicast(w.sched[sent].first, w.sched[sent].second, sent);
      delivered += net.collect_round().size();
    }
    if (delivered != messages) std::abort();  // engine lost messages
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(messages));
}

/// Enqueue cost in isolation: construction and draining are untimed.
void BM_CalendarEnqueue(benchmark::State& state) {
  const auto messages = static_cast<std::size_t>(state.range(0));
  const auto delay = static_cast<std::uint32_t>(state.range(1));
  const World& w = world();
  for (auto _ : state) {
    state.PauseTiming();
    Net net(w.topo, {}, false, delay_model(delay));
    state.ResumeTiming();
    for (std::size_t i = 0; i < messages; ++i)
      net.unicast(w.sched[i].first, w.sched[i].second, i);
    state.PauseTiming();
    while (net.pending()) benchmark::DoNotOptimize(net.collect_round());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(messages));
}

const std::vector<std::vector<std::int64_t>> kArgs = {
    {1000, 10000, 100000},  // messages
    {0, 5},                 // max extra delay (0 = synchronous)
};

BENCHMARK(BM_CalendarPump)->ArgsProduct(kArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CalendarEnqueue)->ArgsProduct(kArgs)->Unit(benchmark::kMicrosecond);

}  // namespace
