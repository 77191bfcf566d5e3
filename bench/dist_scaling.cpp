// Scaling and wire-cost profile of the distributed engine
// (docs/DISTRIBUTED.md).
//
// A pump workload — fixed message counts on the delayed-collect scenario —
// timed on the serial calendar engine (`sim::Network`) and on
// `sim::DistributedNetwork` at rank counts {1, 2, 4}. Every cross-rank
// message crosses a real socketpair as proto-codec bytes, so alongside
// wall time the tracked BENCH_dist.json records bytes-on-wire (frame bytes
// sent to and received from the rank processes, plus the payload bytes
// inside them): the wire tax is the whole story of this engine's overhead.
//
// The distributed pump installs a node actor (docs/DISTRIBUTED.md §2) whose
// handlers count deliveries and emit no effects, so its time is the price
// of the wire plus rank-side handler execution and the effect-ledger half
// of the barrier, with no algorithmic work.
//
// Every timed run is also a determinism check: the distributed engine must
// deliver exactly the sent message count and reproduce the serial engine's
// energy total bit-for-bit at every rank count, and the harvested
// rank-resident handler-invocation counter must equal the message count
// (every handler ran out there, none in the parent). A mismatch exits
// non-zero — the engine's contract is bitwise equivalence, not approximate
// agreement.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "emst/geometry/sampling.hpp"
#include "emst/proto/wire.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/actor.hpp"
#include "emst/sim/distributed_network.hpp"
#include "emst/sim/network.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/json.hpp"
#include "emst/support/rng.hpp"
#include "emst/support/stats.hpp"
#include "emst/support/table.hpp"

namespace {

using namespace emst;

using Payload = std::uint64_t;
constexpr std::size_t kSendRounds = 32;

struct World {
  sim::Topology topo;
  std::vector<std::pair<sim::NodeId, sim::NodeId>> sched;  ///< in-range pairs
};

World make_world(std::size_t nodes, std::size_t max_messages,
                 std::uint64_t seed) {
  support::Rng rng(seed);
  const auto points = geometry::uniform_points(nodes, rng);
  sim::Topology topo(points, rgg::connectivity_radius(nodes));
  std::vector<std::pair<sim::NodeId, sim::NodeId>> sched;
  sched.reserve(max_messages);
  while (sched.size() < max_messages) {
    const auto u = static_cast<sim::NodeId>(rng.uniform_int(nodes));
    const auto nbs = topo.neighbors(u);
    if (nbs.empty()) continue;
    sched.emplace_back(u, nbs[rng.uniform_int(nbs.size())].id);
  }
  return World{std::move(topo), std::move(sched)};
}

struct Sample {
  double millis = 0.0;
  std::size_t delivered = 0;
  double energy = 0.0;       ///< cross-engine identity check
  std::uint64_t wire_sent = 0;      ///< frame bytes parent -> ranks
  std::uint64_t wire_received = 0;  ///< frame bytes ranks -> parent
  std::uint64_t payload_bytes = 0;  ///< codec bytes inside the frames
  std::uint64_t rank_invocations = 0;  ///< harvested handler count
};

using Clock = std::chrono::steady_clock;

/// The perf_sim steady-state pump on the serial engine: send over
/// kSendRounds rounds, collecting each round, then drain.
Sample run_pump_serial(const World& w, std::size_t messages,
                       std::uint32_t delay) {
  const std::size_t per_round = (messages + kSendRounds - 1) / kSendRounds;
  const auto start = Clock::now();
  sim::Network<Payload> net(w.topo, {}, /*unbounded_broadcast=*/false,
                            sim::DelayModel{delay, 0xbe7cULL});
  std::size_t sent = 0;
  Sample out;
  while (sent < messages || net.pending()) {
    const std::size_t stop = std::min(messages, sent + per_round);
    for (; sent < stop; ++sent)
      net.unicast(w.sched[sent].first, w.sched[sent].second, sent);
    out.delivered += net.collect_round().size();
  }
  out.millis =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  out.energy = net.meter().totals().energy;
  return out;
}

/// The node actor of the distributed pump: handlers count deliveries and
/// emit no effects.
struct PumpActor {
  void on_round_start(std::uint64_t /*round*/) {}
  template <typename Env>
  void on_message(const sim::Delivery<Payload>& /*d*/, Env& /*env*/) {
    ++invocations_;
  }
  template <typename LocalPred, typename Env, typename Emit>
  void step(std::uint8_t /*kind*/, std::uint64_t /*param*/,
            std::span<const sim::NodeId> /*list*/,
            const sim::FaultInjector& /*faults*/, bool /*faulty*/,
            LocalPred&& /*is_local*/, Env& /*env*/, Emit&& /*emit*/) {}
  void encode_node(sim::NodeId /*u*/, proto::BitWriter& /*w*/) const {}
  void decode_node(sim::NodeId /*u*/, proto::BitReader& /*r*/) {}
  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }

 private:
  std::uint64_t invocations_ = 0;
};

/// Effect-replay observer for the distributed pump: the actor emits
/// nothing, so every callback is a no-op.
struct PumpSink {
  void on_send(std::uint8_t /*dtag*/, double /*reach*/) {}
  void on_step_node(sim::NodeId /*u*/, std::uint8_t /*flag*/) {}
  void on_note(sim::NodeId /*u*/, std::uint32_t /*a*/, std::uint64_t /*b*/) {}
};

/// The same pump on the distributed engine. Construction is timed too — it
/// includes forking the rank processes.
Sample run_pump_dist(const World& w, std::size_t messages,
                     std::uint32_t delay, std::size_t ranks) {
  const std::size_t per_round = (messages + kSendRounds - 1) / kSendRounds;
  const auto start = Clock::now();
  sim::DistributedNetwork<Payload> net(w.topo, {}, /*unbounded_broadcast=*/false,
                                       sim::DelayModel{delay, 0xbe7cULL}, {},
                                       nullptr, ranks);
  PumpActor actor;
  net.install_actor(actor, /*faulty=*/false);
  PumpSink sink;
  std::size_t sent = 0;
  Sample out;
  while (sent < messages || net.pending()) {
    const std::size_t stop = std::min(messages, sent + per_round);
    for (; sent < stop; ++sent)
      net.unicast(w.sched[sent].first, w.sched[sent].second, sent);
    out.delivered += net.actor_collect_round(sink).batch;
  }
  out.millis =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  out.energy = net.meter().totals().energy;
  // Placement witness: every handler ran inside a rank, none here.
  out.rank_invocations = net.actor_harvest(actor);
  out.wire_sent = net.bytes_sent();
  out.wire_received = net.bytes_received();
  out.payload_bytes = net.payload_bytes_sent();
  return out;
}

struct Timing {
  support::RunningStats ms;
  bool checks_ok = true;
  std::uint64_t wire_sent = 0;
  std::uint64_t wire_received = 0;
  std::uint64_t payload_bytes = 0;
};

struct Scenario {
  std::size_t messages = 0;
  Timing serial;
  std::vector<Timing> dist;  ///< one per rank count
  double serial_energy = 0.0;
};

/// Payload-vs-frame sanity (tracked-record invariant): codec bytes ride
/// inside the frame bytes, so the strict inequality can only be asserted
/// once at least one message actually crossed a rank boundary — a run whose
/// traffic never left the parent records payload_bytes == 0 legitimately.
bool payload_within_wire(const Sample& s) {
  return s.payload_bytes == 0 || s.payload_bytes < s.wire_sent;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(
      argc, argv,
      {{"nodes", "deployment size for the pump topology (default 2048)"},
       {"messages", "comma list of message counts (default 10000,100000)"},
       {"ranks", "comma list of rank-process counts (default 1,2,4)"},
       {"delay", "max extra delay D for the delayed-collect scenario (default 5)"},
       {"trials", "timed repetitions per engine config (default 3)"},
       {"seed", "master seed (default 2026)"},
       {"json", "output JSON path (default BENCH_dist.json)"},
       {"quick", "1 = CI-sized run (5k/20k messages, 2 trials)"}});
  const bool quick = cli.get_int("quick", 0) != 0;
  const auto nodes =
      static_cast<std::size_t>(cli.get_int("nodes", quick ? 512 : 2048));
  const auto message_counts = cli.get_int_list(
      "messages", quick ? std::vector<std::int64_t>{5000, 20000}
                        : std::vector<std::int64_t>{10000, 100000});
  const auto rank_counts = cli.get_int_list("ranks", {1, 2, 4});
  const auto delay = static_cast<std::uint32_t>(cli.get_int("delay", 5));
  const auto trials =
      static_cast<std::size_t>(cli.get_int("trials", quick ? 2 : 3));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  const std::string json_path = cli.get("json", "BENCH_dist.json");

  const unsigned hw = std::thread::hardware_concurrency();
  std::size_t max_messages = 0;
  for (const auto m : message_counts)
    max_messages = std::max(max_messages, static_cast<std::size_t>(m));

  std::printf("distributed scaling: pump at n(nodes)=%zu, D=%u, %zu trials, "
              "host hardware_concurrency=%u\n\n",
              nodes, delay, trials, hw);
  const World w = make_world(nodes, max_messages, seed);

  std::vector<Scenario> scenarios;
  for (const auto m : message_counts) {
    Scenario sc;
    sc.messages = static_cast<std::size_t>(m);
    sc.dist.resize(rank_counts.size());

    // Untimed warm-up, and the energy reference for the identity check.
    sc.serial_energy = run_pump_serial(w, sc.messages, delay).energy;

    for (std::size_t t = 0; t < trials; ++t) {
      const Sample s = run_pump_serial(w, sc.messages, delay);
      sc.serial.ms.add(s.millis);
      sc.serial.checks_ok &=
          s.delivered == sc.messages && s.energy == sc.serial_energy;
      for (std::size_t ri = 0; ri < rank_counts.size(); ++ri) {
        const auto ranks = static_cast<std::size_t>(rank_counts[ri]);
        const Sample a = run_pump_dist(w, sc.messages, delay, ranks);
        sc.dist[ri].ms.add(a.millis);
        // The whole point: same count, bitwise-same energy, at every width,
        // with every handler executed rank-side.
        sc.dist[ri].checks_ok &= a.delivered == sc.messages &&
                                 a.energy == sc.serial_energy &&
                                 a.rank_invocations == sc.messages &&
                                 payload_within_wire(a);
        sc.dist[ri].wire_sent = a.wire_sent;
        sc.dist[ri].wire_received = a.wire_received;
        sc.dist[ri].payload_bytes = a.payload_bytes;
      }
    }
    scenarios.push_back(std::move(sc));
  }

  std::vector<std::string> header = {"messages", "serial_ms"};
  for (const auto r : rank_counts) {
    std::string col = "r";
    col += std::to_string(r);
    col += "_actor_slowdown";
    header.push_back(std::move(col));
    col = "r";
    col += std::to_string(r);
    col += "_wire_mb";
    header.push_back(std::move(col));
  }
  header.emplace_back("identical");
  support::Table table(header);
  bool all_ok = true;
  for (const Scenario& sc : scenarios) {
    std::vector<support::Cell> row = {
        static_cast<long long>(sc.messages), sc.serial.ms.mean()};
    bool ok = sc.serial.checks_ok;
    for (const Timing& timing : sc.dist) {
      row.emplace_back(timing.ms.mean() / sc.serial.ms.mean());
      row.emplace_back(
          static_cast<double>(timing.wire_sent + timing.wire_received) /
          (1024.0 * 1024.0));
      ok &= timing.checks_ok;
    }
    row.emplace_back(std::string(ok ? "yes" : "NO"));
    all_ok &= ok;
    table.add_row(row);
  }
  table.print(std::cout);

  {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    support::JsonWriter json(os);
    json.begin_object();
    json.key("bench").value("dist_scaling");
    json.key("hardware_concurrency").value(static_cast<std::uint64_t>(hw));
    json.key("nodes").value(static_cast<std::uint64_t>(nodes));
    json.key("max_extra_delay").value(static_cast<std::uint64_t>(delay));
    json.key("trials").value(static_cast<std::uint64_t>(trials));
    json.key("seed").value(seed);
    json.key("identical").value(all_ok);
    json.key("scenarios").begin_array();
    for (const Scenario& sc : scenarios) {
      json.begin_object();
      json.key("messages").value(static_cast<std::uint64_t>(sc.messages));
      json.key("serial_ms").begin_object();
      json.key("mean").value(sc.serial.ms.mean());
      json.key("stddev").value(sc.serial.ms.stddev());
      json.end_object();
      json.key("distributed").begin_array();
      for (std::size_t ri = 0; ri < rank_counts.size(); ++ri) {
        const Timing& timing = sc.dist[ri];
        json.begin_object();
        json.key("ranks").value(static_cast<std::uint64_t>(rank_counts[ri]));
        json.key("mean_ms").value(timing.ms.mean());
        json.key("stddev_ms").value(timing.ms.stddev());
        json.key("slowdown_vs_serial")
            .value(timing.ms.mean() / sc.serial.ms.mean());
        json.key("wire_bytes_sent").value(timing.wire_sent);
        json.key("wire_bytes_received").value(timing.wire_received);
        json.key("payload_bytes").value(timing.payload_bytes);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    os << '\n';
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  std::printf("\nreading guide: rN_actor_slowdown is the distributed "
              "engine's wall time at N rank processes, with the node actor's "
              "handlers executing INSIDE the ranks (docs/DISTRIBUTED.md §2), "
              "divided by the serial engine's — the price of a real wire; "
              "rN_wire_mb is the frame traffic both directions. Interpret "
              "against hardware_concurrency=%u. 'identical' confirms every "
              "rank count reproduced the serial delivery count and energy "
              "bit-for-bit and executed every handler rank-side; a NO is a "
              "determinism-contract violation and the bench exits "
              "non-zero.\n",
              hw);
  if (!all_ok) {
    std::fprintf(stderr, "error: distributed engine diverged from the serial "
                         "reference — determinism contract violated\n");
    return 1;
  }
  return 0;
}
