// Engine-side wire-format hook.
//
// The paper's energy model assumes O(log n)-bit messages (§II; the Ω(log n)
// lower bound of Thm 4.1 depends on it), but the meter charges d^α per
// message regardless of size. To *measure* bits-on-air, every message type
// may declare a wire format: `WireFormat<Msg>` is the customization point
// the engines consult at send time. The primary template reports 0 bits
// (unmeasured — raw engine traffic, test payloads); the proto layer
// (emst/proto/) specializes it for each driver's message vocabulary.
//
// Layering: this header knows nothing about the codec itself — it only
// defines the hook. Engines (`Network`, `DistributedNetwork`) hold a
// `WireFormat<Msg>` instance and stamp `meter.set_bits(wire.bits(msg))`
// before every charge, so the bit count
// rides the same context channel as the message kind and fragment id and
// lands in `Accounting::bits`, the breakdown matrix and telemetry events.
// Specializations are configured by the driver through the engine's
// `wire_format()` accessor (they typically carry a `proto::WireContext`
// sized from the topology).
#pragma once

#include <cstdint>

namespace emst::sim {

/// Wire size of one ARQ framing header: 1 ack/data flag bit + a 16-bit
/// sequence number. `ArqLink` charges it on top of the payload for every
/// DATA attempt and alone for every ACK.
inline constexpr std::uint32_t kArqHeaderBits = 17;

/// Customization point: specialize for a message type to teach the engines
/// its encoded size. Specializations must provide
/// `std::uint32_t bits(const Msg&) const` and set `kMeasured = true`.
/// The primary template reports 0 bits — "no codec" — so existing message
/// types keep working unmeasured.
template <typename Msg>
struct WireFormat {
  static constexpr bool kMeasured = false;
  [[nodiscard]] std::uint32_t bits(const Msg&) const noexcept { return 0; }
};

}  // namespace emst::sim
