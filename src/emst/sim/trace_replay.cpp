#include "emst/sim/trace_replay.hpp"

#include <cstdio>
#include <ostream>

namespace emst::sim {

namespace {

/// One ARQ-flagged unicast charge → the matching ArqStats send counter.
/// Frame bits split the same way: ACK frames → ack_bits, DATA frames (first
/// attempts and retransmissions alike) → data_bits.
void count_arq_frame(const TelemetryEvent& e, ArqStats& arq) {
  if ((e.flags & kEventFlagRetransmit) != 0) {
    ++arq.retransmissions;
    arq.data_bits += e.bits;
  } else if (e.kind == MsgKind::kArqAck) {
    ++arq.acks_sent;
    arq.ack_bits += e.bits;
  } else {
    ++arq.data_sent;
    arq.data_bits += e.bits;
  }
}

}  // namespace

ReplayTotals replay_events(std::span<const TelemetryEvent> events) {
  ReplayTotals out;
  for (const TelemetryEvent& e : events) {
    const std::size_t p = static_cast<std::size_t>(e.phase);
    switch (e.type) {
      case EventType::kUnicast: {
        out.totals.energy += e.energy;
        ++out.totals.unicasts;
        ++out.totals.deliveries;
        out.totals.bits += e.bits;
        EnergyBreakdown::Cell& c = out.breakdown.cell(e.phase, e.kind);
        c.energy += e.energy;
        ++c.messages;
        c.bits += e.bits;
        ++out.breakdown.unicasts[p];
        ++out.breakdown.deliveries[p];
        if ((e.flags & kEventFlagArq) != 0) count_arq_frame(e, out.arq);
        break;
      }
      case EventType::kBroadcast: {
        out.totals.energy += e.energy;
        ++out.totals.broadcasts;
        out.totals.deliveries += e.receivers;
        out.totals.bits += e.bits;
        EnergyBreakdown::Cell& c = out.breakdown.cell(e.phase, e.kind);
        c.energy += e.energy;
        ++c.messages;
        c.bits += e.bits;
        ++out.breakdown.broadcasts[p];
        out.breakdown.deliveries[p] += e.receivers;
        break;
      }
      case EventType::kLoss:
        ++out.faults.lost;
        break;
      case EventType::kCrashDrop:
        ++out.faults.dropped_crashed;
        break;
      case EventType::kSuppress:
        ++out.faults.suppressed;
        break;
      case EventType::kArqDeliver:
        ++out.arq.delivered;
        break;
      case EventType::kArqDuplicate:
        ++out.arq.duplicates;
        break;
      case EventType::kArqGiveUp:
        ++out.arq.give_ups;
        break;
      case EventType::kArqTimeout:
        out.arq.timeout_rounds += e.value;
        break;
      case EventType::kRound:
        out.totals.rounds += e.value;
        out.breakdown.rounds[p] += e.value;
        break;
      case EventType::kCrashInject:
      case EventType::kOracleViolation:
        // Chaos/oracle markers: no charge, no counter — offline tooling
        // reads them, the replayed totals must ignore them.
        break;
      case EventType::kCount:
        break;
    }
  }
  return out;
}

void write_trace_header(std::ostream& out, std::string_view algo,
                        std::size_t n, std::uint64_t seed,
                        std::size_t threads, std::size_t ranks,
                        std::string_view driver) {
  char buf[256];
  int len = std::snprintf(
      buf, sizeof(buf), "{\"trace\":\"emst\",\"version\":1,\"algo\":\"%.*s\","
                        "\"n\":%zu,\"seed\":%llu",
      static_cast<int>(algo.size()), algo.data(), n,
      static_cast<unsigned long long>(seed));
  if (len > 0 && len < static_cast<int>(sizeof(buf)) && threads > 1) {
    len += std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                         ",\"threads\":%zu", threads);
  }
  if (len > 0 && len < static_cast<int>(sizeof(buf)) && ranks > 0) {
    len += std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                         ",\"ranks\":%zu", ranks);
  }
  if (len > 0 && len < static_cast<int>(sizeof(buf)) && !driver.empty()) {
    len += std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                         ",\"driver\":\"%.*s\"", static_cast<int>(driver.size()),
                         driver.data());
  }
  if (len > 0 && len < static_cast<int>(sizeof(buf))) {
    len += std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                         "}\n");
  }
  if (len > 0 && len < static_cast<int>(sizeof(buf))) out.write(buf, len);
}

void write_trace_summary(std::ostream& out, const Accounting& totals,
                         const FaultStats& faults, const ArqStats& arq) {
  char buf[768];
  const int len = std::snprintf(
      buf, sizeof(buf),
      "{\"summary\":{"
      "\"energy\":%.17g,\"unicasts\":%llu,\"broadcasts\":%llu,"
      "\"deliveries\":%llu,\"rounds\":%llu,\"bits\":%llu,"
      "\"lost\":%llu,\"dropped_crashed\":%llu,\"suppressed\":%llu,"
      "\"data_sent\":%llu,\"retransmissions\":%llu,\"acks_sent\":%llu,"
      "\"duplicates\":%llu,\"delivered\":%llu,\"give_ups\":%llu,"
      "\"timeout_rounds\":%llu,\"data_bits\":%llu,\"ack_bits\":%llu}}\n",
      totals.energy, static_cast<unsigned long long>(totals.unicasts),
      static_cast<unsigned long long>(totals.broadcasts),
      static_cast<unsigned long long>(totals.deliveries),
      static_cast<unsigned long long>(totals.rounds),
      static_cast<unsigned long long>(totals.bits),
      static_cast<unsigned long long>(faults.lost),
      static_cast<unsigned long long>(faults.dropped_crashed),
      static_cast<unsigned long long>(faults.suppressed),
      static_cast<unsigned long long>(arq.data_sent),
      static_cast<unsigned long long>(arq.retransmissions),
      static_cast<unsigned long long>(arq.acks_sent),
      static_cast<unsigned long long>(arq.duplicates),
      static_cast<unsigned long long>(arq.delivered),
      static_cast<unsigned long long>(arq.give_ups),
      static_cast<unsigned long long>(arq.timeout_rounds),
      static_cast<unsigned long long>(arq.data_bits),
      static_cast<unsigned long long>(arq.ack_bits));
  if (len > 0 && len < static_cast<int>(sizeof(buf))) out.write(buf, len);
}

}  // namespace emst::sim
