#include "emst/sim/reliable.hpp"

#include <algorithm>

namespace emst::sim {
namespace {

/// ARQ meta events (adel/adup/agup/atmo) describe the session's link,
/// sender → receiver, not a frame: they carry no ARQ flags and no bits,
/// whatever the meter holds for the frame in flight.
void note_session_event(EnergyMeter& meter, EventType type, graph::NodeId u,
                        graph::NodeId v, std::uint64_t value = 0) {
  const std::uint8_t flags = meter.flags();
  const std::uint32_t bits = meter.bits();
  meter.set_flags(0);
  meter.clear_bits();
  meter.note_event(type, u, v, 0.0, value);
  meter.set_flags(flags);
  meter.set_bits(bits);
}

}  // namespace

ArqOutcome ArqLink::transmit(EnergyMeter& meter, graph::NodeId u,
                             graph::NodeId v, double distance) {
  ArqOutcome out;
  if (injector_ != nullptr && injector_->crashed(u)) {
    ++injector_->stats().suppressed;  // a dead radio transmits nothing
    meter.note_event(EventType::kSuppress, u, v, distance);
    return out;
  }
  // Every frame this session charges is flagged as ARQ-managed (even the
  // single-attempt degenerate mode): the replay validator reconstructs
  // data_sent / retransmissions / acks_sent from exactly these flags.
  //
  // Bits: the ambient meter value is the *payload* size the driver set for
  // this logical message. Each physical frame adds the ARQ header on top:
  // payload+header for DATA, header alone for ACKs. An unmeasured payload
  // (0 bits) leaves the whole session unmeasured.
  const MsgKind payload_kind = meter.kind();
  const std::uint32_t payload_bits = meter.bits();
  const std::uint32_t data_bits =
      payload_bits != 0 ? payload_bits + kArqHeaderBits : 0;
  const std::uint32_t ack_bits = payload_bits != 0 ? kArqHeaderBits : 0;
  const std::uint32_t attempts = arq_.enabled ? arq_.max_retries + 1 : 1;
  std::uint32_t rto = arq_.rto_rounds;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    ++out.data_attempts;
    if (attempt == 0) {
      ++stats_.data_sent;
    } else {
      ++stats_.retransmissions;
    }
    stats_.data_bits += data_bits;
    meter.set_arq_frame(/*retransmit=*/attempt != 0);
    meter.set_bits(data_bits);
    meter.charge_unicast(u, v, distance);  // lost or not, the radio transmitted
    bool data_ok = true;
    if (injector_ != nullptr) {
      if (injector_->drop(u, v)) {
        data_ok = false;
        ++injector_->stats().lost;
        meter.note_event(EventType::kLoss, u, v, distance);
      } else if (injector_->crashed(v)) {
        data_ok = false;
        ++injector_->stats().dropped_crashed;
        meter.note_event(EventType::kCrashDrop, u, v, distance);
      }
    }
    if (data_ok) {
      if (out.delivered) {
        ++stats_.duplicates;
        note_session_event(meter, EventType::kArqDuplicate, u, v);
      }
      out.delivered = true;
      if (!arq_.enabled) break;
      // Stop-and-wait: the receiver confirms every copy it hears.
      ++out.ack_attempts;
      ++stats_.acks_sent;
      stats_.ack_bits += ack_bits;
      meter.set_arq_frame(/*retransmit=*/false);
      meter.set_kind(MsgKind::kArqAck);
      meter.set_bits(ack_bits);
      meter.charge_unicast(v, u, distance);
      meter.set_kind(payload_kind);
      meter.set_bits(data_bits);
      bool ack_ok = true;
      if (injector_ != nullptr) {
        if (injector_->drop(v, u)) {
          ack_ok = false;
          ++injector_->stats().lost;
          meter.note_event(EventType::kLoss, v, u, distance);
        } else if (injector_->crashed(u)) {
          ack_ok = false;
          ++injector_->stats().dropped_crashed;
          meter.note_event(EventType::kCrashDrop, v, u, distance);
        }
      }
      if (ack_ok) {
        out.acked = true;
        break;
      }
    }
    if (attempt + 1 < attempts) {
      out.extra_rounds += rto;
      rto = std::min(rto * arq_.backoff, ArqOptions::kRtoCap);
    }
  }
  meter.clear_arq_frame();
  meter.set_bits(payload_bits);  // restore the driver's ambient payload size
  if (arq_.enabled && !out.acked) {
    ++stats_.give_ups;
    note_session_event(meter, EventType::kArqGiveUp, u, v);
  }
  if (out.delivered) {
    ++stats_.delivered;
    note_session_event(meter, EventType::kArqDeliver, u, v);
  }
  stats_.timeout_rounds += out.extra_rounds;
  if (out.extra_rounds > 0)
    note_session_event(meter, EventType::kArqTimeout, u, v, out.extra_rounds);
  return out;
}

}  // namespace emst::sim
