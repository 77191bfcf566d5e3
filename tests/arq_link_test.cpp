// Tests for the stop-and-wait ARQ simulator `sim::ArqLink`
// (docs/ROBUSTNESS.md). The load-bearing claims: honest energy accounting
// (every DATA retransmission and every ACK is charged, header bits
// included), receiver-side duplicates when an ACK is lost, and bounded
// give-up that the telemetry stream and FaultStats account for leg by leg.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/reliable.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/sim/trace_replay.hpp"
#include "emst/sim/wire.hpp"

namespace emst {
namespace {

constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();

TEST(ArqLink, DisabledIsExactlyOneChargedUnicast) {
  sim::EnergyMeter meter{geometry::PathLoss{}};
  sim::ArqLink link(nullptr, sim::ArqOptions{});
  const sim::ArqOutcome out = link.transmit(meter, 0, 1, 2.0);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.data_attempts, 1u);
  EXPECT_EQ(out.ack_attempts, 0u);
  EXPECT_EQ(out.extra_rounds, 0u);
  EXPECT_EQ(meter.totals().unicasts, 1u);
  EXPECT_DOUBLE_EQ(meter.totals().energy, 4.0);  // 2² — nothing else charged
  EXPECT_EQ(link.stats().give_ups, 0u);
}

TEST(ArqLink, CleanChannelWithArqPaysExactlyDataPlusAck) {
  sim::FaultModel model;
  model.crashes = {{99, 0, 1}};  // enabled, but never touches nodes 0/1
  sim::FaultInjector injector(model);
  sim::ArqOptions arq;
  arq.enabled = true;
  sim::EnergyMeter meter{geometry::PathLoss{}};
  sim::ArqLink link(&injector, arq);
  const sim::ArqOutcome out = link.transmit(meter, 0, 1, 1.0);
  EXPECT_TRUE(out.delivered);
  EXPECT_TRUE(out.acked);
  EXPECT_EQ(out.data_attempts, 1u);
  EXPECT_EQ(out.ack_attempts, 1u);
  EXPECT_EQ(out.extra_rounds, 0u);
  EXPECT_EQ(meter.totals().unicasts, 2u);
  EXPECT_DOUBLE_EQ(meter.totals().energy, 2.0);
  // No ambient payload size: the frames stay unmeasured, header and all.
  EXPECT_EQ(link.stats().data_bits, 0u);
  EXPECT_EQ(link.stats().ack_bits, 0u);
  EXPECT_EQ(meter.totals().bits, 0u);
}

TEST(ArqLink, CrashedReceiverGiveUpsAreFullyAccounted) {
  // The give-up path end to end: a receiver dead from birth exhausts two
  // sessions' retry budgets while a healthy link delivers. Every leg must
  // land in FaultStats AND in the telemetry event stream, and replaying
  // that stream must rebuild the live counters exactly.
  sim::FaultModel model;
  model.crashes = {{1, 0, kForever}};
  sim::FaultInjector injector(model);
  sim::ArqOptions arq;
  arq.enabled = true;
  arq.max_retries = 3;
  sim::MemoryTraceSink sink;
  sim::Telemetry telemetry(&sink);
  sim::EnergyMeter meter{geometry::PathLoss{}};
  meter.attach_telemetry(&telemetry);
  meter.set_bits(40);  // the driver's ambient payload size
  sim::ArqLink link(&injector, arq);
  EXPECT_FALSE(link.transmit(meter, 0, 1, 1.0).delivered);  // doomed #1
  EXPECT_TRUE(link.transmit(meter, 0, 2, 1.0).acked);       // healthy
  EXPECT_FALSE(link.transmit(meter, 0, 1, 1.0).delivered);  // doomed #2
  EXPECT_EQ(meter.bits(), 40u);  // each session restores the ambient size

  const sim::ArqStats& stats = link.stats();
  EXPECT_EQ(stats.give_ups, 2u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.retransmissions, 6u);  // 3 per doomed session
  // Each doomed DATA attempt (1 + 3 retries, twice) was charged and then
  // dropped at the crashed receiver; nothing was suppressed (the sender
  // is alive) or lost on the channel.
  EXPECT_EQ(injector.stats().dropped_crashed, 8u);
  EXPECT_EQ(injector.stats().suppressed, 0u);
  EXPECT_EQ(injector.stats().lost, 0u);
  // Every DATA attempt bills payload + header; the one ACK bills the header.
  EXPECT_EQ(stats.data_bits, 9u * (40u + sim::kArqHeaderBits));
  EXPECT_EQ(stats.ack_bits, sim::kArqHeaderBits);
  EXPECT_EQ(meter.totals().bits, stats.data_bits + stats.ack_bits);

  // The event stream mirrors the stats one for one.
  std::size_t give_ups = 0;
  std::size_t timeouts = 0;
  std::size_t arq_deliveries = 0;
  std::size_t crash_drops = 0;
  for (const sim::TelemetryEvent& e : sink.events()) {
    switch (e.type) {
      case sim::EventType::kArqGiveUp: ++give_ups; break;
      case sim::EventType::kArqTimeout: ++timeouts; break;
      case sim::EventType::kArqDeliver: ++arq_deliveries; break;
      case sim::EventType::kCrashDrop: ++crash_drops; break;
      default: break;
    }
  }
  EXPECT_EQ(give_ups, stats.give_ups);
  EXPECT_EQ(arq_deliveries, stats.delivered);
  EXPECT_EQ(crash_drops, injector.stats().dropped_crashed);
  EXPECT_GT(timeouts, 0u);

  const sim::ReplayTotals replay = sim::replay_events(sink.events());
  EXPECT_EQ(replay.violation, "") << "event " << replay.violation_index;
  EXPECT_EQ(replay.totals.energy, meter.totals().energy);
  EXPECT_EQ(replay.totals.unicasts, meter.totals().unicasts);
  EXPECT_EQ(replay.totals.bits, meter.totals().bits);
  EXPECT_EQ(replay.faults.lost, injector.stats().lost);
  EXPECT_EQ(replay.faults.dropped_crashed, injector.stats().dropped_crashed);
  EXPECT_EQ(replay.faults.suppressed, injector.stats().suppressed);
  EXPECT_EQ(replay.arq.data_sent, stats.data_sent);
  EXPECT_EQ(replay.arq.retransmissions, stats.retransmissions);
  EXPECT_EQ(replay.arq.acks_sent, stats.acks_sent);
  EXPECT_EQ(replay.arq.duplicates, stats.duplicates);
  EXPECT_EQ(replay.arq.delivered, stats.delivered);
  EXPECT_EQ(replay.arq.give_ups, stats.give_ups);
  EXPECT_EQ(replay.arq.timeout_rounds, stats.timeout_rounds);
  EXPECT_EQ(replay.arq.data_bits, stats.data_bits);
  EXPECT_EQ(replay.arq.ack_bits, stats.ack_bits);
}

TEST(ArqLink, CrashedSenderIsSuppressedForFree) {
  sim::FaultModel model;
  model.crashes = {{0, 0, kForever}};
  sim::FaultInjector injector(model);
  sim::ArqOptions arq;
  arq.enabled = true;
  sim::EnergyMeter meter{geometry::PathLoss{}};
  sim::ArqLink link(&injector, arq);
  const sim::ArqOutcome out = link.transmit(meter, 0, 1, 1.0);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.data_attempts, 0u);
  EXPECT_EQ(meter.totals().unicasts, 0u);
  EXPECT_DOUBLE_EQ(meter.totals().energy, 0.0);
  EXPECT_EQ(injector.stats().suppressed, 1u);
}

TEST(ArqLink, TotalLossChargesEveryAttemptThenGivesUp) {
  sim::FaultModel model;
  model.loss = 1.0;
  sim::FaultInjector injector(model);
  sim::ArqOptions arq;
  arq.enabled = true;
  arq.max_retries = 5;
  sim::EnergyMeter meter{geometry::PathLoss{}};
  sim::ArqLink link(&injector, arq);
  const sim::ArqOutcome out = link.transmit(meter, 0, 1, 1.0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.acked);
  EXPECT_EQ(out.data_attempts, 6u);  // 1 + max_retries
  EXPECT_EQ(meter.totals().unicasts, 6u);
  EXPECT_DOUBLE_EQ(meter.totals().energy, 6.0);
  EXPECT_EQ(link.stats().give_ups, 1u);
  EXPECT_EQ(link.stats().retransmissions, 5u);
  // Backoff: 3 + 6 + 12 + 24 + 48 timeout rounds between the 6 attempts.
  EXPECT_EQ(out.extra_rounds, 93u);
}

TEST(ArqLink, LostAckForcesADuplicateDataCopy) {
  // Gilbert–Elliott with loss only in Bad and a chain that starts Good:
  // craft rates so the DATA gets through, the ACK dies, and the retransmitted
  // DATA is a receiver-side duplicate. Easier: Bernoulli with a seed known to
  // produce (data ok, ack lost, data ok, ack ok) early — assert on the
  // aggregate counters over many sessions instead of one fragile draw.
  sim::FaultModel model;
  model.loss = 0.4;
  model.seed = 31337;
  sim::FaultInjector injector(model);
  sim::ArqOptions arq;
  arq.enabled = true;
  arq.max_retries = 20;
  sim::EnergyMeter meter{geometry::PathLoss{}};
  sim::ArqLink link(&injector, arq);
  std::uint64_t delivered = 0;
  for (int i = 0; i < 200; ++i) {
    delivered += link.transmit(meter, 0, 1, 1.0).delivered ? 1 : 0;
  }
  EXPECT_EQ(delivered, 200u);  // ARQ rescued every session at this budget
  EXPECT_GT(link.stats().duplicates, 0u);
  EXPECT_GT(link.stats().retransmissions, 0u);
  EXPECT_EQ(link.stats().data_sent, 200u);
  // The meter saw every physical frame: first attempts + retransmissions +
  // ACK attempts, nothing more.
  EXPECT_EQ(meter.totals().unicasts, link.stats().data_sent +
                                         link.stats().retransmissions +
                                         link.stats().acks_sent);
}

TEST(ArqLink, SessionEventsNameTheLinkAndCarryNoFrame) {
  // Lossy sessions 0 → 1 deliver, some after a duplicate; sessions 0 → 2
  // give up at a dead receiver. Every ARQ meta event names its session's
  // link sender → receiver and carries no flags or bits, although the
  // frames around it are ARQ-flagged and measured.
  sim::FaultModel model;
  model.loss = 0.4;
  model.seed = 31337;
  model.crashes = {{2, 0, kForever}};
  sim::FaultInjector injector(model);
  sim::ArqOptions arq;
  arq.enabled = true;
  arq.max_retries = 20;
  sim::MemoryTraceSink sink;
  sim::Telemetry telemetry(&sink);
  sim::EnergyMeter meter{geometry::PathLoss{}};
  meter.attach_telemetry(&telemetry);
  meter.set_bits(40);
  sim::ArqLink link(&injector, arq);
  for (int i = 0; i < 200; ++i) (void)link.transmit(meter, 0, 1, 1.0);
  for (int i = 0; i < 3; ++i) (void)link.transmit(meter, 0, 2, 1.0);
  EXPECT_EQ(meter.bits(), 40u);
  EXPECT_EQ(meter.flags(), 0u);

  std::size_t seen[4] = {};
  for (const sim::TelemetryEvent& e : sink.events()) {
    std::size_t slot = 0;
    switch (e.type) {
      case sim::EventType::kArqDeliver: slot = 0; break;
      case sim::EventType::kArqDuplicate: slot = 1; break;
      case sim::EventType::kArqGiveUp: slot = 2; break;
      case sim::EventType::kArqTimeout: slot = 3; break;
      default: continue;
    }
    ++seen[slot];
    EXPECT_EQ(e.from, 0u);
    EXPECT_TRUE(e.to == 1 || e.to == 2) << "to " << e.to;
    if (e.type == sim::EventType::kArqGiveUp) {
      EXPECT_EQ(e.to, 2u);
    }
    EXPECT_EQ(e.flags, 0u);
    EXPECT_EQ(e.bits, 0u);
  }
  EXPECT_EQ(seen[0], link.stats().delivered);
  EXPECT_EQ(seen[1], link.stats().duplicates);
  EXPECT_EQ(seen[2], link.stats().give_ups);
  EXPECT_GT(seen[1], 0u);
  EXPECT_EQ(seen[2], 3u);
  EXPECT_GT(seen[3], 0u);
}

}  // namespace
}  // namespace emst
