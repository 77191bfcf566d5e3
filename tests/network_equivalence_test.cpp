// Golden-trace differential test for the calendar-queue network engine.
//
// The seed engine (reference_network.hpp) defines the delivery contract:
// within a round, messages arrive sorted by (receiver, global send
// sequence), and per-edge FIFO holds under random delays. The calendar
// queue must reproduce those sequences *byte-for-byte* — same rounds, same
// order, same distances, same meter totals, same telemetry events — on
// identical schedules. Any divergence is an engine bug, not a tolerance
// question.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "emst/geometry/sampling.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/support/rng.hpp"
#include "reference_network.hpp"

namespace emst::sim {
namespace {

using Msg = std::uint64_t;

/// Replay an identical random unicast/broadcast schedule through both
/// engines on n nodes and require identical Delivery sequences every round
/// and identical telemetry event streams.
/// Unicasts with an even payload go over a link and must arrive on the port
/// naming their sender in the receiver's row; every other send arrives on
/// none. Each schedule round makes `min_ops` random sends and up to 19
/// more, then one unicast to each node of `must_hit` from a neighbour of
/// it, in descending receiver order; each of those receivers must then be
/// delivered to in some round whose bucket takes the large-bucket path.
void expect_equivalent_runs(std::uint32_t max_extra_delay, std::size_t n = 250,
                            std::uint64_t min_ops = 0,
                            std::span<const NodeId> must_hit = {}) {
  support::Rng rng(424242 + max_extra_delay);
  const auto points = geometry::uniform_points(n, rng);
  const double radius = rgg::connectivity_radius(n);
  const Topology topo(points, radius);
  const DelayModel delays{max_extra_delay, 0x90f0ULL + max_extra_delay};

  MemoryTraceSink calendar_sink;
  MemoryTraceSink reference_sink;
  Telemetry calendar_telemetry(&calendar_sink);
  Telemetry reference_telemetry(&reference_sink);
  Network<Msg> calendar(topo, {}, false, delays, {}, &calendar_telemetry);
  ReferenceNetwork<Msg> reference(topo, {}, false, delays, {},
                                  &reference_telemetry);

  std::uint64_t payload = 0;
  std::unordered_set<Msg> by_link;  // payloads sent with unicast(u, link, m)
  std::map<NodeId, std::size_t> large_hits;  // must_hit receiver → rounds
  std::size_t total_delivered = 0;
  const int schedule_rounds = 60;
  for (int round = 0; round < schedule_rounds + 40; ++round) {
    if (round < schedule_rounds) {
      const std::uint64_t ops = min_ops + rng.uniform_int(20);
      for (std::uint64_t k = 0; k < ops; ++k) {
        const auto u = static_cast<NodeId>(rng.uniform_int(n));
        if (rng.uniform() < 0.3) {
          const double r = rng.uniform(0.0, radius);
          calendar.broadcast(u, r, payload);
          reference.broadcast(u, r, payload);
          ++payload;
        } else {
          const auto nbs = topo.neighbors(u);
          if (nbs.empty()) continue;
          const graph::Neighbor& link = nbs[rng.uniform_int(nbs.size())];
          if (payload % 2 == 0) {
            calendar.unicast(u, link, payload);
            reference.unicast(u, link, payload);
            by_link.insert(payload);
          } else {
            calendar.unicast(u, link.id, payload);
            reference.unicast(u, link.id, payload);
          }
          ++payload;
        }
      }
      for (auto it = must_hit.rbegin(); it != must_hit.rend(); ++it) {
        const auto nbs = topo.neighbors(*it);
        ASSERT_FALSE(nbs.empty()) << "node " << *it << " is isolated";
        const NodeId u = nbs[rng.uniform_int(nbs.size())].id;
        calendar.unicast(u, *it, payload);
        reference.unicast(u, *it, payload);
        ++payload;
      }
    }
    const auto got = calendar.collect_round();
    const auto want = reference.collect_round();
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].from, want[i].from) << "round " << round << " pos " << i;
      ASSERT_EQ(got[i].to, want[i].to) << "round " << round << " pos " << i;
      ASSERT_EQ(got[i].distance, want[i].distance)  // bit-identical, no EQ_NEAR
          << "round " << round << " pos " << i;
      ASSERT_EQ(got[i].msg, want[i].msg) << "round " << round << " pos " << i;
      ASSERT_EQ(got[i].port, want[i].port) << "round " << round << " pos " << i;
      if (by_link.contains(got[i].msg)) {
        const auto row = topo.neighbors(got[i].to);
        ASSERT_LT(got[i].port, row.size()) << "round " << round << " pos " << i;
        EXPECT_EQ(row[got[i].port].id, got[i].from)
            << "round " << round << " pos " << i;
      } else {
        EXPECT_EQ(got[i].port, graph::kNoSlot)
            << "round " << round << " pos " << i;
      }
    }
    if (got.size() > ReceiverOrder::kSmallBucket) {
      for (const NodeId v : must_hit) {
        const bool hit = std::any_of(got.begin(), got.end(),
                                     [v](const auto& d) { return d.to == v; });
        large_hits[v] += hit ? 1 : 0;
      }
    }
    total_delivered += got.size();
    ASSERT_EQ(calendar.pending(), reference.pending()) << "round " << round;
    if (round >= schedule_rounds && !reference.pending()) break;
  }
  EXPECT_FALSE(calendar.pending());
  EXPECT_FALSE(reference.pending());
  EXPECT_GT(total_delivered, 0u);
  for (const NodeId v : must_hit)
    EXPECT_GT(large_hits[v], 0u) << "receiver " << v << " in no large bucket";

  // The meters must agree exactly too — both engines charge at the same
  // points with the same inputs.
  EXPECT_EQ(calendar.meter().totals().energy, reference.meter().totals().energy);
  EXPECT_EQ(calendar.meter().totals().unicasts,
            reference.meter().totals().unicasts);
  EXPECT_EQ(calendar.meter().totals().broadcasts,
            reference.meter().totals().broadcasts);
  EXPECT_EQ(calendar.meter().totals().deliveries,
            reference.meter().totals().deliveries);
  EXPECT_EQ(calendar.meter().totals().rounds, reference.meter().totals().rounds);
  EXPECT_FALSE(calendar_sink.events().empty());
  EXPECT_EQ(calendar_sink.events(), reference_sink.events());
}

TEST(NetworkEquivalence, Synchronous) { expect_equivalent_runs(0); }
TEST(NetworkEquivalence, Delay1) { expect_equivalent_runs(1); }
TEST(NetworkEquivalence, Delay5) { expect_equivalent_runs(5); }

// Three summary words of the drain's receiver bitmap (4096 nodes each):
// large buckets whose receivers sit on both sides of every word and summary
// boundary, and at both ends of the id range.
TEST(NetworkEquivalence, ReceiverBitmapAcrossSummaryWords) {
  constexpr std::size_t n = 9000;
  constexpr NodeId kEdges[] = {0, 63, 64, 4095, 4096, 8191, 8192, n - 1};
  for (const std::uint32_t delay : {0u, 5u}) {
    SCOPED_TRACE(testing::Message() << "max_extra_delay " << delay);
    expect_equivalent_runs(delay, n, 60, kEdges);
  }
}

TEST(NetworkEquivalence, PerEdgeFifoUnderRandomDelays) {
  // Property: on every directed edge, payloads arrive in send order, across
  // a whole random topology (not just a single hand-picked link).
  const std::size_t n = 120;
  support::Rng rng(777);
  const auto points = geometry::uniform_points(n, rng);
  const double radius = rgg::connectivity_radius(n);
  const Topology topo(points, radius);
  Network<Msg> net(topo, {}, false, {7, 0xf1f0ULL});

  std::unordered_map<std::uint64_t, std::vector<Msg>> sent;
  std::unordered_map<std::uint64_t, std::size_t> cursor;
  std::uint64_t payload = 0;
  std::size_t delivered = 0;
  for (int round = 0; round < 80; ++round) {
    if (round < 50) {
      for (int k = 0; k < 15; ++k) {
        const auto u = static_cast<NodeId>(rng.uniform_int(n));
        const auto nbs = topo.neighbors(u);
        if (nbs.empty()) continue;
        const auto v = nbs[rng.uniform_int(nbs.size())].id;
        net.unicast(u, v, payload);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
        sent[key].push_back(payload);
        ++payload;
      }
    }
    for (const auto& d : net.collect_round()) {
      const std::uint64_t key = (static_cast<std::uint64_t>(d.from) << 32) |
                                static_cast<std::uint64_t>(d.to);
      const std::size_t pos = cursor[key]++;
      ASSERT_LT(pos, sent[key].size());
      EXPECT_EQ(d.msg, sent[key][pos])
          << "edge " << d.from << "->" << d.to << " out of FIFO order";
      ++delivered;
    }
    if (round >= 50 && !net.pending()) break;
  }
  EXPECT_FALSE(net.pending());
  EXPECT_EQ(delivered, payload);
}

TEST(NetworkEquivalence, BroadcastMoveOverloadDeliversToAll) {
  // The rvalue broadcast overload must behave exactly like the const&
  // one: every in-range receiver gets the payload.
  const Topology topo({{0, 0}, {1, 0}, {0, 1}, {1, 1}}, 1.5);
  Network<std::string> net(topo);
  std::string msg = "payload";
  net.broadcast(0, 1.1, std::move(msg));
  const auto batch = net.collect_round();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].msg, "payload");
  EXPECT_EQ(batch[1].msg, "payload");
}

}  // namespace
}  // namespace emst::sim
