// Differential and negative tests for the distributed process engine
// (docs/DISTRIBUTED.md).
//
// `DistributedNetwork` promises results bitwise-identical to `Network` for
// every rank count, with a node actor's handlers executing in forked worker
// processes and every payload crossing a real socketpair as proto-codec
// bytes. The differential half runs a small forwarding actor over identical
// random schedules — serially on `Network`, and installed into the
// distributed engine across rank counts, delay models, and crash windows —
// and requires byte-for-byte agreement of the noted deliveries, handler
// sends, meter totals, fault stats and telemetry streams. The negative half
// proves the collective fingerprint contract: a corrupted frame or a
// skipped collective is REPORTED (rank, round, expected/actual chain
// values) instead of deadlocking a barrier, and a killed rank process is
// reported with its signal. Round-trip tests pin the DistMsgAdapter codecs
// the wire uses.
#include <gtest/gtest.h>

#include <sys/types.h>

#include <bit>
#include <csignal>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "emst/geometry/sampling.hpp"
#include "emst/nnt/connt_actor.hpp"
#include "emst/proto/dist_wire.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/actor.hpp"
#include "emst/sim/distributed_network.hpp"
#include "emst/sim/network.hpp"
#include "emst/support/rng.hpp"

namespace emst::sim {
namespace {

using Msg = std::uint64_t;

void expect_same_events(const MemoryTraceSink& got,
                        const MemoryTraceSink& want) {
  ASSERT_EQ(got.events().size(), want.events().size());
  for (std::size_t i = 0; i < got.events().size(); ++i) {
    ASSERT_EQ(got.events()[i], want.events()[i]) << "event " << i;
  }
}

/// Test node actor: notes every delivery as (sender, payload) and forwards
/// a deterministic subset, so handler sends cross the effect ledger too.
/// Payloads = 1 (mod 8) are forwarded by unicast to a neighbor, payloads
/// = 3 (mod 8) by local broadcast; the forwarded payload is one larger,
/// which ends the chain.
class ForwardActor {
 public:
  explicit ForwardActor(const Topology& topo) : topo_(&topo) {}

  void on_round_start(std::uint64_t /*round*/) {}

  template <typename Env>
  void on_message(const Delivery<Msg>& d, Env& env) {
    ++invocations_;
    env.note(d.from, d.msg);
    const auto nbs = topo_->neighbors(d.to);
    if (nbs.empty()) return;
    if (d.msg % 8 == 1) {
      const graph::Neighbor& nb = nbs[d.msg / 8 % nbs.size()];
      env.unicast(d.to, nb.id, MsgKind::kRequest, 1, d.from, nb.w,
                  d.msg + 1);
    } else if (d.msg % 8 == 3) {
      env.broadcast(d.to, nbs[0].w, MsgKind::kReply, 2, d.from, d.msg + 1);
    }
  }

  template <typename LocalPred, typename Env, typename Emit>
  void step(std::uint8_t /*kind*/, std::uint64_t /*param*/,
            std::span<const NodeId> /*list*/, const FaultInjector& /*faults*/,
            bool /*faulty*/, LocalPred&& /*is_local*/, Env& /*env*/,
            Emit&& /*emit*/) {}
  void encode_node(NodeId /*u*/, proto::BitWriter& /*w*/) const {}
  void decode_node(NodeId /*u*/, proto::BitReader& /*r*/) {}
  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }

 private:
  const Topology* topo_;
  std::uint64_t invocations_ = 0;
};

/// One entry of the stream both placements must agree on: a noted delivery
/// (node = receiver, a = sender, b = payload) or a handler send (a = the
/// driver tag, b = the reach's bit image).
struct Observed {
  bool send = false;
  NodeId node = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Observed&) const = default;
};

/// Runs the actor serially over `Network` — the env tallies and stages
/// each send immediately, like the drivers' serial envs — and logs what the
/// distributed replay sink observes.
struct SerialRun {
  Network<Msg>& net;
  ForwardActor& actor;
  std::vector<Observed> log;
  NodeId node = 0;
  std::uint64_t round = 0;

  void unicast(NodeId u, NodeId to, MsgKind kind, std::uint8_t dtag,
               std::uint32_t fragment, double reach, Msg m) {
    log.push_back({true, 0, dtag, std::bit_cast<std::uint64_t>(reach)});
    net.meter().set_kind(kind);
    net.meter().set_fragment(fragment);
    net.unicast(u, to, m);
  }
  void broadcast(NodeId u, double radius, MsgKind kind, std::uint8_t dtag,
                 std::uint32_t fragment, Msg m) {
    log.push_back({true, 0, dtag, std::bit_cast<std::uint64_t>(radius)});
    net.meter().set_kind(kind);
    net.meter().set_fragment(fragment);
    net.broadcast(u, radius, m);
  }
  void defer(const Delivery<Msg>& /*d*/) {
    ADD_FAILURE() << "ForwardActor never defers";
  }
  void note(std::uint32_t a, std::uint64_t b) {
    log.push_back({false, node, a, b});
  }

  /// One barrier: collect, then dispatch the batch. Returns its size.
  std::size_t collect_round() {
    const auto batch = net.collect_round();
    actor.on_round_start(++round);
    for (const Delivery<Msg>& d : batch) {
      node = d.to;
      actor.on_message(d, *this);
    }
    return batch.size();
  }
};

/// The distributed side's replay observer, logging the same stream.
struct RecordingSink {
  std::vector<Observed> log;
  void on_send(std::uint8_t dtag, double reach) {
    log.push_back({true, 0, dtag, std::bit_cast<std::uint64_t>(reach)});
  }
  void on_step_node(NodeId /*u*/, std::uint8_t /*flag*/) {}
  void on_note(NodeId node, std::uint32_t a, std::uint64_t b) {
    log.push_back({false, node, a, b});
  }
};

/// One barrier on both sides; requires the same batch and the same
/// observed stream.
void expect_same_round(SerialRun& serial, DistributedNetwork<Msg>& dist,
                       RecordingSink& sink, int round) {
  serial.log.clear();
  sink.log.clear();
  const std::size_t want = serial.collect_round();
  const ActorRoundInfo got = dist.actor_collect_round(sink);
  ASSERT_EQ(got.batch, want) << "round " << round;
  ASSERT_EQ(sink.log, serial.log) << "round " << round;
  ASSERT_EQ(dist.pending(), serial.net.pending()) << "round " << round;
}

/// Replay an identical random unicast/broadcast schedule through the
/// forwarding actor on `Network` and on a `DistributedNetwork` with the
/// given rank count; require identical noted deliveries, handler sends,
/// meter totals, fault stats and telemetry streams.
void expect_dist_equivalent(std::size_t ranks, std::uint32_t max_extra_delay,
                            const FaultModel& faults = {}) {
  const std::size_t n = 250;
  support::Rng rng(525252 + max_extra_delay + 977 * ranks);
  const auto points = geometry::uniform_points(n, rng);
  const double radius = rgg::connectivity_radius(n);
  const Topology topo(points, radius);
  const DelayModel delays{max_extra_delay, 0xd1d1ULL + max_extra_delay};

  MemoryTraceSink serial_sink, dist_sink;
  Telemetry serial_tel(&serial_sink), dist_tel(&dist_sink);
  Network<Msg> serial_net(topo, {}, false, delays, faults, &serial_tel);
  DistributedNetwork<Msg> dist(topo, {}, false, delays, faults, &dist_tel,
                               ranks);
  ForwardActor serial_actor(topo), dist_actor(topo);
  SerialRun serial{serial_net, serial_actor, {}};
  dist.install_actor(dist_actor, faults.enabled());
  RecordingSink sink;

  std::uint64_t payload = 0;
  std::size_t total_noted = 0;
  const int schedule_rounds = 50;
  for (int round = 0; round < schedule_rounds + 40; ++round) {
    if (round < schedule_rounds) {
      const std::uint64_t ops = rng.uniform_int(20);
      for (std::uint64_t k = 0; k < ops; ++k) {
        const auto u = static_cast<NodeId>(rng.uniform_int(n));
        if (rng.uniform() < 0.3) {
          const double r = rng.uniform(0.0, radius);
          serial_net.broadcast(u, r, payload);
          dist.broadcast(u, r, payload);
          ++payload;
        } else {
          const auto nbs = topo.neighbors(u);
          if (nbs.empty()) continue;
          const auto v = nbs[rng.uniform_int(nbs.size())].id;
          serial_net.unicast(u, v, payload);
          dist.unicast(u, v, payload);
          ++payload;
        }
      }
      ASSERT_EQ(dist.pending(), serial_net.pending()) << "round " << round;
    }
    expect_same_round(serial, dist, sink, round);
    if (testing::Test::HasFatalFailure()) return;
    total_noted += sink.log.size();
    if (round >= schedule_rounds && !serial_net.pending()) break;
  }
  EXPECT_FALSE(dist.pending());
  EXPECT_GT(total_noted, 0u);

  const Accounting& got = dist.meter().totals();
  const Accounting& want = serial_net.meter().totals();
  EXPECT_EQ(got.energy, want.energy);
  EXPECT_EQ(got.unicasts, want.unicasts);
  EXPECT_EQ(got.broadcasts, want.broadcasts);
  EXPECT_EQ(got.deliveries, want.deliveries);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(dist.fault_stats().lost, serial_net.fault_stats().lost);
  EXPECT_EQ(dist.fault_stats().dropped_crashed,
            serial_net.fault_stats().dropped_crashed);
  EXPECT_EQ(dist.fault_stats().suppressed,
            serial_net.fault_stats().suppressed);
  expect_same_events(dist_sink, serial_sink);
  // Placement witness: every handler ran in a rank, none in the parent.
  EXPECT_EQ(dist.actor_harvest(dist_actor), serial_actor.invocations());
  EXPECT_EQ(dist_actor.invocations(), 0u);
  // The wire is real: every routed payload crossed the channel inside
  // frames with headers and fingerprints, and the ledgers came back.
  EXPECT_GT(dist.bytes_sent(), dist.payload_bytes_sent());
  EXPECT_GT(dist.bytes_received(), 0u);
}

TEST(DistributedNetwork, SynchronousAcrossRankCounts) {
  for (const std::size_t r : {1u, 2u, 4u}) expect_dist_equivalent(r, 0);
}

TEST(DistributedNetwork, Delay1AcrossRankCounts) {
  for (const std::size_t r : {1u, 2u, 4u}) expect_dist_equivalent(r, 1);
}

TEST(DistributedNetwork, Delay5AcrossRankCounts) {
  for (const std::size_t r : {1u, 2u, 4u}) expect_dist_equivalent(r, 5);
}

TEST(DistributedNetwork, CrashWindowsAcrossRankCounts) {
  // Suppressions (send side) and the authoritative crash drops (merge
  // side) are classified in the parent, where the fault clock lives; the
  // ranks' crash mirrors skip the handlers of crashed receivers, and the
  // parent asserts the two agree.
  FaultModel faults;
  for (NodeId u = 0; u < 40; ++u) {
    faults.crashes.push_back({u, 10 + (u % 7), 30 + (u % 11)});
  }
  for (const std::uint32_t d : {0u, 1u, 5u}) {
    for (const std::size_t r : {1u, 2u, 4u}) expect_dist_equivalent(r, d, faults);
  }
}

TEST(DistributedNetwork, MoreRanksThanNodes) {
  // Degenerate partition: more rank processes than nodes (some ranks own
  // nothing and only ever exchange empty barrier frames).
  const Topology topo({{0.1, 0.1}, {0.9, 0.1}, {0.1, 0.9}}, 1.5);
  Network<Msg> serial_net(topo);
  DistributedNetwork<Msg> dist(topo, {}, false, {}, {}, nullptr, 8);
  ForwardActor serial_actor(topo), dist_actor(topo);
  SerialRun serial{serial_net, serial_actor, {}};
  dist.install_actor(dist_actor, /*faulty=*/false);
  RecordingSink sink;
  for (int round = 0; round < 8; ++round) {
    if (round < 5) {
      serial_net.unicast(0, 1, static_cast<Msg>(round));
      dist.unicast(0, 1, static_cast<Msg>(round));
      serial_net.broadcast(2, 1.2, static_cast<Msg>(1000 + round));
      dist.broadcast(2, 1.2, static_cast<Msg>(1000 + round));
    }
    expect_same_round(serial, dist, sink, round);
    if (HasFatalFailure()) return;
  }
  EXPECT_FALSE(dist.pending());
  EXPECT_EQ(dist.meter().totals().energy, serial_net.meter().totals().energy);
  EXPECT_EQ(dist.actor_harvest(dist_actor), serial_actor.invocations());
}

TEST(DistributedNetwork, LargeRoundChunksAcrossFrames) {
  // Force rounds whose ACTOR_ROUND mailbox and ACTOR_DRAINED ledger each
  // exceed one serve frame: both exchanges must chunk transparently
  // (records and ledger entries never straddle frames, every chunk
  // fingerprinted) and still match the serial engine exactly.
  const std::size_t n = 64;
  support::Rng rng(771177);
  const auto points = geometry::uniform_points(n, rng);
  const Topology topo(points, rgg::connectivity_radius(n));
  Network<Msg> serial_net(topo);
  DistributedNetwork<Msg> dist(topo, {}, false, {}, {}, nullptr, 2);
  ForwardActor serial_actor(topo), dist_actor(topo);
  SerialRun serial{serial_net, serial_actor, {}};
  dist.install_actor(dist_actor, /*faulty=*/false);
  RecordingSink sink;
  // 6000 records x 40 bytes is ~234 KiB of mailbox per round, and ~6000
  // ledger entries of >= 37 bytes come back — at two ranks, more than two
  // frames' worth in each direction, so some rank chunks both ways.
  constexpr std::size_t kFrameCap = proto::kDistMaxFramePayloadBytes;
  for (int burst = 0; burst < 3; ++burst) {
    for (std::uint64_t k = 0; k < 6000; ++k) {
      const auto u = static_cast<NodeId>(rng.uniform_int(n));
      const auto nbs = topo.neighbors(u);
      if (nbs.empty()) continue;
      const auto v = nbs[rng.uniform_int(nbs.size())].id;
      serial_net.unicast(u, v, k);
      dist.unicast(u, v, k);
    }
    const std::uint64_t sent0 = dist.bytes_sent();
    const std::uint64_t received0 = dist.bytes_received();
    expect_same_round(serial, dist, sink, burst);
    if (HasFatalFailure()) return;
    EXPECT_GT(dist.bytes_sent() - sent0, 2 * kFrameCap);
    EXPECT_GT(dist.bytes_received() - received0, 2 * kFrameCap);
  }
  while (serial_net.pending()) {
    expect_same_round(serial, dist, sink, 3);
    if (HasFatalFailure()) return;
  }
  EXPECT_FALSE(dist.pending());
  EXPECT_EQ(dist.meter().totals().energy, serial_net.meter().totals().energy);
}

/// The CalendarRing boundary workload (calendar_ring_test.cpp) on the
/// rank-side ring (apps/actor_rank.hpp): `burst` messages per round onto
/// the one link of a two-node topology, far more than the D+1 buckets, so
/// the FIFO clamp pins dues at the window's upper edge while the head wraps
/// the ring again and again. The forwarding actor sends some payloads back,
/// so the reverse link is clamped too. The drain horizon is fixed, as in
/// CalendarRing: a message aliased into a wrong bucket arrives early, late
/// or never, and breaks the round-by-round match or the conservation count.
void expect_ring_bursts_equivalent(std::size_t ranks,
                                   std::uint32_t max_extra_delay,
                                   std::size_t burst, int send_rounds) {
  const Topology topo({{0.25, 0.5}, {0.75, 0.5}}, 1.0);
  const DelayModel delays{max_extra_delay, 0xabcdULL + max_extra_delay};
  MemoryTraceSink serial_sink, dist_sink;
  Telemetry serial_tel(&serial_sink), dist_tel(&dist_sink);
  Network<Msg> serial_net(topo, {}, false, delays, {}, &serial_tel);
  DistributedNetwork<Msg> dist(topo, {}, false, delays, {}, &dist_tel,
                               ranks);
  ForwardActor serial_actor(topo), dist_actor(topo);
  SerialRun serial{serial_net, serial_actor, {}};
  dist.install_actor(dist_actor, /*faulty=*/false);
  RecordingSink sink;

  std::uint64_t payload = 0;
  std::uint64_t received = 0;  // deliveries on the 0→1 link
  std::uint64_t last_seen = 0;
  const int rounds = send_rounds + 3 * static_cast<int>(max_extra_delay) + 5;
  for (int round = 0; round < rounds; ++round) {
    if (round < send_rounds) {
      for (std::size_t k = 0; k < burst; ++k) {
        serial_net.unicast(0, 1, payload);
        dist.unicast(0, 1, payload);
        ++payload;
      }
    }
    expect_same_round(serial, dist, sink, round);
    if (testing::Test::HasFatalFailure()) return;
    for (const Observed& o : sink.log) {
      if (o.send || o.node != 1) continue;
      // Single-link FIFO: node 1 hears only node 0's payloads, in order.
      if (received > 0) {
        ASSERT_GT(o.b, last_seen) << "round " << round;
      }
      last_seen = o.b;
      ++received;
    }
  }
  EXPECT_EQ(received, payload);
  EXPECT_FALSE(serial_net.pending());
  EXPECT_FALSE(dist.pending());
  EXPECT_EQ(dist.meter().totals().energy, serial_net.meter().totals().energy);
  EXPECT_EQ(dist.meter().totals().deliveries,
            serial_net.meter().totals().deliveries);
  expect_same_events(dist_sink, serial_sink);
  EXPECT_EQ(dist.actor_harvest(dist_actor), serial_actor.invocations());
}

TEST(DistributedNetwork, CalendarRingBurstsAcrossRankCounts) {
  // CalendarRing's SynchronousBurst, TinyRingHeavyClamp and a D = 5 clamp
  // pile-up; at two ranks the two nodes live in different ranks.
  struct Burst {
    std::uint32_t max_extra_delay;
    std::size_t burst;
    int send_rounds;
  };
  for (const Burst b : {Burst{0, 40, 30}, Burst{1, 24, 60}, Burst{5, 16, 80}}) {
    for (const std::size_t r : {1u, 2u}) {
      SCOPED_TRACE(testing::Message() << "D=" << b.max_extra_delay
                                      << " ranks=" << r);
      expect_ring_bursts_equivalent(r, b.max_extra_delay, b.burst,
                                    b.send_rounds);
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Negative tests: the collective fingerprint contract. A desynchronized
// barrier must be *reported* — with the rank, the round, and both chain
// values — never a silent hang. EMST_ASSERT-style aborts make these death
// tests (the repo-wide pattern for contract violations).
// ---------------------------------------------------------------------------

using DistributedNetworkDeathTest = ::testing::Test;

[[nodiscard]] Topology small_topology() {
  support::Rng rng(99);
  return Topology(geometry::uniform_points(60, rng),
                  rgg::connectivity_radius(60));
}

/// Effect-replay observer that records nothing — the death tests only care
/// that the parent REPORTS the failure instead of hanging.
struct NullActorSink {
  void on_send(std::uint8_t, double) {}
  void on_step_node(NodeId, std::uint8_t) {}
  void on_note(NodeId, std::uint32_t, std::uint64_t) {}
};

TEST(DistributedNetworkDeathTest, CorruptedFrameIsReportedByRank) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Topology topo = small_topology();
  EXPECT_DEATH(
      {
        DistributedNetwork<Msg> dist(topo, {}, false, {}, {}, nullptr, 2);
        ForwardActor actor(topo);
        dist.install_actor(actor, /*faulty=*/false);
        NullActorSink sink;
        dist.unicast(0, topo.neighbors(0)[0].id, 1);
        // Corrupt one byte of rank 0's next ACTOR_ROUND frame after the
        // parent has mixed its chain — the rank must detect the mismatch,
        // reply DESYNC with its expected/actual values, and exit; the parent
        // surfaces the report.
        dist.test_corrupt_next_frame(0);
        (void)dist.actor_collect_round(sink);
      },
      "collective fingerprint mismatch reported by rank at round "
      "[0-9]+: expected [0-9a-f]{16} actual [0-9a-f]{16}(.|\n)*"
      "rank 0 exited with status 3");
}

TEST(DistributedNetworkDeathTest, SkippedCollectiveIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Topology topo = small_topology();
  EXPECT_DEATH(
      {
        DistributedNetwork<Msg> dist(topo, {}, false, {}, {}, nullptr, 2);
        ForwardActor actor(topo);
        dist.install_actor(actor, /*faulty=*/false);
        NullActorSink sink;
        dist.unicast(0, topo.neighbors(0)[0].id, 1);
        // Model PARCOACH's bug class — a collective the parent recorded
        // but never exchanged. The frame the rank sees is self-consistent,
        // so detection falls to the PARENT's reply verification.
        dist.test_skip_collective_mix(0);
        (void)dist.actor_collect_round(sink);
      },
      "rank 0 failed at round [0-9]+: collective fingerprint mismatch in "
      "rank reply: expected [0-9a-f]{16} actual [0-9a-f]{16}");
}

TEST(DistributedNetworkDeathTest, KilledRankIsReportedWithSignal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Topology topo = small_topology();
  EXPECT_DEATH(
      {
        DistributedNetwork<Msg> dist(topo, {}, false, {}, {}, nullptr, 2);
        ForwardActor actor(topo);
        dist.install_actor(actor, /*faulty=*/false);
        NullActorSink sink;
        ::kill(static_cast<pid_t>(dist.rank_pid(1)), SIGKILL);
        for (int round = 0; round < 100; ++round) {
          dist.unicast(0, topo.neighbors(0)[0].id, 1);
          (void)dist.actor_collect_round(sink);
        }
      },
      "rank 1 (failed at round [0-9]+: (rank channel closed mid-round|"
      "write to rank failed)(.|\n)*)?killed by signal 9");
}

TEST(DistributedNetworkDeathTest, LossyFaultModelsAreRejected) {
  // Ranks decide delivery fates with a crash-only mirror, so the engine
  // refuses loss models at construction, before any rank exists.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Topology topo = small_topology();
  FaultModel lossy;
  lossy.loss = 0.1;
  EXPECT_DEATH(
      { DistributedNetwork<Msg> dist(topo, {}, false, {}, lossy, nullptr, 2); },
      "crash-only fault models");
  FaultModel bursty;
  bursty.use_gilbert = true;
  EXPECT_DEATH(
      { DistributedNetwork<Msg> dist(topo, {}, false, {}, bursty, nullptr, 2); },
      "crash-only fault models");
}

TEST(DistributedNetworkDeathTest, KilledRankMidHandlerIsReportedWithoutDeadlock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Topology topo = small_topology();
  EXPECT_DEATH(
      {
        DistributedNetwork<proto::ConntMsg> dist(topo, {}, true, {}, {},
                                                 nullptr, 2);
        dist.wire_format().ctx = proto::WireContext::for_topology(
            topo.node_count(), topo.edge_count());
        // Arm the hook BEFORE install: rank 1 raises SIGKILL on itself
        // immediately before EXECUTING a handler at round >= 1 — mid-round,
        // after ingesting the round's frames, while the parent is blocked in
        // the barrier's receive half.
        dist.set_actor_test_hooks({.kill_rank = 1, .kill_round = 1});
        nnt::ConntActor actor(
            topo.points(), nnt::RankScheme::kDiagonal,
            static_cast<double>(topo.node_count()), dist.wire_format().ctx);
        dist.install_actor(actor, /*faulty=*/false);
        NullActorSink sink;
        std::vector<NodeId> all(topo.node_count());
        std::iota(all.begin(), all.end(), NodeId{0});
        // Probe sweeps at a fixed early round keep every node unresolved, so
        // the expected step order stays the full node list while REQUEST and
        // REPLY deliveries land on rank 1's handlers until the hook fires.
        for (int r = 0; r < 16; ++r) {
          dist.actor_step(proto::kDistStepConntProbe, 1, {}, all, sink);
          (void)dist.actor_collect_round(sink);
        }
      },
      "rank 1 (failed at round [0-9]+: (rank channel closed mid-round|"
      "write to rank failed)(.|\n)*)?killed by signal 9");
}

// ---------------------------------------------------------------------------
// DistMsgAdapter codec round-trips: the exact bytes the engine routes.
// ---------------------------------------------------------------------------

template <typename M>
[[nodiscard]] M adapter_round_trip(const M& m, const WireFormat<M>& wf,
                                   std::uint32_t expect_bits = 0) {
  proto::BitWriter w;
  proto::DistMsgAdapter<M>::encode(m, w, wf);
  if (expect_bits != 0) {
    EXPECT_EQ(w.bit_count(), expect_bits);
  }
  proto::BitReader r(w.bytes());
  M back = proto::DistMsgAdapter<M>::decode(r, wf);
  EXPECT_EQ(r.bit_count(), w.bit_count());
  return back;
}

TEST(DistMsgAdapter, TrivialPayloadByteImageRoundTrips) {
  const WireFormat<std::uint64_t> wf;
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeefcafeULL},
        ~std::uint64_t{0}}) {
    EXPECT_EQ(adapter_round_trip(v, wf), v);
  }
  struct Pod {
    std::uint32_t a;
    double b;
    bool operator==(const Pod&) const = default;
  };
  const WireFormat<Pod> pod_wf;
  const Pod p{42, 0.5772156649};
  EXPECT_EQ(adapter_round_trip(p, pod_wf), p);
}

TEST(DistMsgAdapter, GhsVocabularyRoundTripsAtMeasuredSize) {
  WireFormat<proto::GhsMsg> wf;
  wf.ctx = proto::WireContext::for_topology(1000, 12000);
  const std::vector<proto::GhsMsg> msgs = {
      proto::GhsConnect{7},
      proto::GhsInitiate{3, 11981, proto::GhsNodeState::kFound},
      proto::GhsTest{5, 77},
      proto::GhsAccept{},
      proto::GhsReject{},
      proto::GhsReport{1234},
      proto::GhsReport{},  // "no outgoing edge" (kInfEdge) presence flag
      proto::GhsChangeRoot{},
      proto::GhsAnnounce{11999},
  };
  for (const proto::GhsMsg& m : msgs) {
    // The adapter must produce exactly the size the meter accounted.
    EXPECT_EQ(adapter_round_trip(m, wf, wf.bits(m)), m);
  }
}

TEST(DistMsgAdapter, ConntVocabularyRoundTripsAtMeasuredSize) {
  WireFormat<proto::ConntMsg> wf;
  wf.ctx = proto::WireContext::for_topology(500, 6000);
  const std::vector<proto::ConntMsg> msgs = {
      proto::ConntRequest{12, 900},
      proto::ConntReply{1023, 0},
      proto::ConntConnect{},
  };
  for (const proto::ConntMsg& m : msgs) {
    EXPECT_EQ(adapter_round_trip(m, wf, wf.bits(m)), m);
  }
}

}  // namespace
}  // namespace emst::sim
