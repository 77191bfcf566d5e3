// Reliable delivery over lossy channels (docs/ROBUSTNESS.md).
//
// `ArqLink` simulates stop-and-wait ARQ in closed form for the drivers that
// recover from message loss (phase-synchronous GHS, EOPT and its census),
// which charge the meter directly instead of exchanging real messages.
// `transmit()` plays one complete session for one logical unicast:
// DATA(seq) → ACK(seq) with a retransmission timeout, exponential backoff
// and a bounded retry budget. It draws every channel fate from the shared
// `FaultInjector`, charges every DATA attempt and every ACK at d^α, and
// reports whether the payload got through.
#pragma once

#include <cstdint>

#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/wire.hpp"

namespace emst::sim {

struct ArqOptions {
  bool enabled = false;
  /// Retransmissions allowed after the first attempt before giving up.
  std::uint32_t max_retries = 10;
  /// Initial retransmission timeout, in rounds: the wait billed to
  /// `ArqStats::timeout_rounds` after the first lost attempt.
  std::uint32_t rto_rounds = 3;
  /// Timeout multiplier per retry (capped at kRtoCap).
  std::uint32_t backoff = 2;

  static constexpr std::uint32_t kRtoCap = 64;
};

struct ArqStats {
  std::uint64_t data_sent = 0;        ///< first attempts
  std::uint64_t retransmissions = 0;  ///< timeout-driven re-sends
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates = 0;       ///< receiver-side suppressed re-deliveries
  std::uint64_t delivered = 0;        ///< payloads that reached the receiver
  std::uint64_t give_ups = 0;         ///< sessions that exhausted the budget
  std::uint64_t timeout_rounds = 0;   ///< rounds spent waiting on lost frames
  /// Wire bits of every DATA frame attempt (first sends and retransmissions;
  /// payload + kArqHeaderBits each) and of every ACK (header only). 0 when
  /// the meter's ambient payload size is 0: retry overhead is only
  /// measurable for messages with a codec.
  std::uint64_t data_bits = 0;
  std::uint64_t ack_bits = 0;

  ArqStats& operator+=(const ArqStats& rhs) noexcept {
    data_sent += rhs.data_sent;
    retransmissions += rhs.retransmissions;
    acks_sent += rhs.acks_sent;
    duplicates += rhs.duplicates;
    delivered += rhs.delivered;
    give_ups += rhs.give_ups;
    timeout_rounds += rhs.timeout_rounds;
    data_bits += rhs.data_bits;
    ack_bits += rhs.ack_bits;
    return *this;
  }
};

/// Outcome of one simulated ARQ session (one logical unicast).
struct ArqOutcome {
  bool delivered = false;  ///< payload reached the receiver at least once
  bool acked = false;      ///< sender received a confirmation
  std::uint32_t data_attempts = 0;
  std::uint32_t ack_attempts = 0;
  std::uint32_t extra_rounds = 0;  ///< timeout rounds beyond the ideal trip
};

/// Driver-side ARQ simulator; see the header comment. With `arq.enabled ==
/// false` it degrades to a single unreliable attempt; with a null/disabled
/// injector AND arq off it is exactly one charged unicast — the zero-cost
/// path the differential tests pin down.
class ArqLink {
 public:
  ArqLink() = default;
  ArqLink(FaultInjector* injector, ArqOptions arq)
      : injector_(injector != nullptr && injector->enabled() ? injector
                                                             : nullptr),
        arq_(arq) {}

  /// Simulate the full ARQ session for one logical unicast u→v over
  /// `distance`, charging every physical transmission to `meter`.
  ArqOutcome transmit(EnergyMeter& meter, graph::NodeId u, graph::NodeId v,
                      double distance);

  /// Forward driver round ticks to the shared fault clock.
  void advance_rounds(std::uint64_t k) noexcept {
    if (injector_ != nullptr) injector_->advance_rounds(k);
  }

  [[nodiscard]] const ArqStats& stats() const noexcept { return stats_; }

 private:
  FaultInjector* injector_ = nullptr;
  ArqOptions arq_{};
  ArqStats stats_;
};

}  // namespace emst::sim
