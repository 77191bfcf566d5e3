// Cross-process wire format for the distributed engine (docs/DISTRIBUTED.md).
//
// `sim::DistributedNetwork` ships every cross-rank message through a real
// socket, so the PR 5 codecs stop being an accounting fiction: the payload
// bytes on the wire ARE the bit-packed proto encoding, and the engine
// asserts that the measured bits-on-air equal the bytes actually sent
// (payload bytes == ceil(bits/8), per message). `DistMsgAdapter<Msg>` is
// the customization point that says how a message type crosses the process
// boundary:
//
//  - the primary template covers trivially-copyable payloads (engine tests,
//    raw pump traffic) with a byte-image codec — unmeasured by
//    `sim::WireFormat`, so no bits/bytes identity is claimed for them;
//  - specializations for the driver vocabularies (`GhsMsg`, `ConntMsg`)
//    delegate to the proto codecs under the engine's configured
//    `WireContext`, exactly the encoding `encoded_bits()` measures.
//
// This header also pins the rank-channel frame protocol shared by the
// parent engine and its rank processes (apps/actor_rank.hpp): the 6-byte
// [u16 version | u32 length] header layout is serve's (serve/framing.hpp —
// the parent and children reassemble streams with `serve::FrameBuffer`),
// with a distinct version word so a dist frame can never be mistaken for a
// serve frame, plus the PARCOACH-style collective-fingerprint chain both
// sides maintain over every exchanged frame (docs/DISTRIBUTED.md §4).
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "emst/proto/connt_wire.hpp"
#include "emst/proto/ghs_wire.hpp"
#include "emst/proto/wire.hpp"

namespace emst::proto {

// -- Rank-channel frame protocol --------------------------------------------

/// Version word carried in every rank-channel frame header (the serve
/// 6-byte layout). Distinct from kServeProtocolVersion by construction.
inline constexpr std::uint16_t kDistProtocolVersion = 0x4401;

/// Frame opcodes (first payload byte; docs/DISTRIBUTED.md §3). The message
/// handlers run inside the rank that owns the receiving node, and the rank
/// ships back an *effect ledger* the parent replays. Any other opcode is a
/// protocol error.
inline constexpr std::uint8_t kDistOpDesync = 3;          ///< rank → parent: abort
inline constexpr std::uint8_t kDistOpActorRound = 6;      ///< parent → rank
inline constexpr std::uint8_t kDistOpActorDrained = 7;    ///< rank → parent
inline constexpr std::uint8_t kDistOpActorStep = 8;       ///< parent → rank
inline constexpr std::uint8_t kDistOpActorStepped = 9;    ///< rank → parent
inline constexpr std::uint8_t kDistOpActorHarvest = 10;   ///< parent → rank
inline constexpr std::uint8_t kDistOpActorHarvested = 11; ///< rank → parent

/// Frame flags (second payload byte). A logical exchange (ACTOR_ROUND,
/// ACTOR_DRAINED, ...) may span several physical frames (chunks) when it
/// outgrows the serve frame cap; the final chunk carries kDistFlagLast.
/// Every chunk is individually fingerprinted, so chunking never weakens the
/// collective check.
inline constexpr std::uint8_t kDistFlagLast = 1;

/// Fixed ACTOR_ROUND record size (bytes, excluding the payload itself):
/// due u64 | from u32 | to u32 | distance u64 (bit image) | bits u32 |
/// plen u32. Records travel in global send order, so the rank's append
/// order is already the sequence order its by-receiver drain needs.
inline constexpr std::size_t kDistRoundRecordBytes = 32;
/// Frame scaffolding (every opcode): opcode u8 | flags u8 | round u64 |
/// count u32 up front, and the 8-byte fingerprint trailer at the end.
inline constexpr std::size_t kDistFrameFixedBytes = 14;
inline constexpr std::size_t kDistFingerprintBytes = 8;
/// Chunk budget: records are packed into a frame body until the NEXT record
/// would push the payload (body + fingerprint trailer) past the serve
/// frame cap. Must equal serve::kMaxFramePayloadBytes (static_asserted
/// where both headers are visible — proto cannot include serve).
inline constexpr std::size_t kDistMaxFramePayloadBytes = std::size_t{1} << 16;
inline constexpr std::size_t kDistMaxChunkBodyBytes =
    kDistMaxFramePayloadBytes - kDistFingerprintBytes;

// -- Actor effect ledger -----------------------------------------------------
//
// A handler running inside a rank cannot touch the parent's meter or
// staging queues directly. Instead the rank records every externally
// visible thing the handler did as a fixed-layout *effect record*, and the
// parent replays those records — in the exact order the serial engine
// would have produced them — against its own meter, fault clock and
// staging queues. Determinism therefore never depends on the
// rank's own clocks: the parent remains the single owner of energy
// accounting, crash fates and telemetry.
//
// Effect records (inside a ledger entry):
//   unicast   tag u8=0 | kind u8 | dtag u8 | fragment u32 | to u32 |
//             reach u64 (double bit image) | bits u32 | plen u32 | payload
//   broadcast tag u8=1 | kind u8 | dtag u8 | fragment u32 |
//             radius u64 (double bit image) | bits u32 | plen u32 | payload
//   note      tag u8=2 | a u32 | b u64
//
// `dtag` is the driver's own message-type index (GhsMsgType for classic
// GHS; 0 for Co-NNT) so the parent can replay per-type tallies without
// decoding the payload. `note` is a driver-defined scalar observation
// (Co-NNT uses it to ship the chosen connection target + its distance).
inline constexpr std::uint8_t kDistEffectUnicast = 0;
inline constexpr std::uint8_t kDistEffectBroadcast = 1;
inline constexpr std::uint8_t kDistEffectNote = 2;
inline constexpr std::size_t kDistEffectUnicastFixedBytes = 27;
inline constexpr std::size_t kDistEffectBroadcastFixedBytes = 23;
inline constexpr std::size_t kDistEffectNoteBytes = 13;

// ACTOR_DRAINED ledger entries (one per handler invocation or crash drop,
// never straddling a chunk boundary):
//   retry     tag u8=0 | node u32 | redeferred u8 | neffects u16 | effects
//   delivery  tag u8=1 | from u32 | to u32 | distance u64 (double bit
//             image) | bits u32 | status u8 | neffects u16 | effects
// Retry entries come first, in the rank-local FIFO order (which the parent
// reproduces from its own deferred-queue model); delivery entries follow in
// ascending-receiver order, so the parent's min-receiver merge reconstructs
// the global (receiver, sequence) order.
inline constexpr std::uint8_t kDistEntryRetry = 0;
inline constexpr std::uint8_t kDistEntryDelivery = 1;
inline constexpr std::size_t kDistEntryRetryFixedBytes = 8;
inline constexpr std::size_t kDistEntryDeliveryFixedBytes = 24;

/// Delivery entry statuses. The rank classifies crash drops with its
/// *mirrored* fault clock; the parent re-classifies with the authoritative
/// clock and asserts agreement — a mirror divergence aborts loudly instead
/// of corrupting the energy stream.
inline constexpr std::uint8_t kDistDeliveryDispatched = 0;
inline constexpr std::uint8_t kDistDeliveryCrashDropped = 1;
inline constexpr std::uint8_t kDistDeliveryDeferred = 2;

// ACTOR_STEP frames choreograph the driver phases that are not message
// deliveries (spontaneous wakeups, epoch restarts, Co-NNT's probe/connect
// sweeps). Body: op u8 | flags u8 | round u64 | step u8 | param u64 |
// fault_round u64 | count u32 | node u32 × count. The reply
// (ACTOR_STEPPED) carries one group per invoked node:
//   group  node u32 | flag u8 | neffects u16 | effects
// in ascending local-node order; the parent walks its independently
// computed global invocation order and pulls each group from the owning
// rank, asserting the node ids line up.
inline constexpr std::uint8_t kDistStepWakeupAll = 0;
inline constexpr std::uint8_t kDistStepWakeupList = 1;
inline constexpr std::uint8_t kDistStepRestart = 2;
inline constexpr std::uint8_t kDistStepConntProbe = 3;
inline constexpr std::uint8_t kDistStepConntConnect = 4;
inline constexpr std::uint8_t kDistStepConntReset = 5;
inline constexpr std::size_t kDistStepFixedBytes = 31;
inline constexpr std::size_t kDistStepGroupFixedBytes = 7;

// ACTOR_HARVEST asks a rank to ship its node states home at the end of a
// run: the ACTOR_HARVESTED reply carries `node u32 | nbytes u32 | state
// image` per local node in ascending order (state images are the actor's
// own proto::BitWriter codec), and the final chunk ends with the rank's
// u64 handler-invocation counter — the acceptance witness that handlers
// really ran rank-side (> 0 in the rank, 0 in the parent).
inline constexpr std::size_t kDistHarvestNodeFixedBytes = 8;

/// FNV-1a over a byte range — the frame-body hash both sides feed the
/// fingerprint chain.
[[nodiscard]] inline std::uint64_t dist_hash(const std::uint8_t* data,
                                             std::size_t len) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Chain seed and mix: fp' = (fp ^ frame_hash) * FNV prime. Every frame in
/// either direction advances the per-rank chain on both sides; equality at
/// every frame is the collective-matching invariant (a rank that missed,
/// repeated, or saw a corrupted exchange diverges immediately and
/// diagnosably instead of hanging).
inline constexpr std::uint64_t kDistFingerprintSeed = 0x9e3779b97f4a7c15ULL;
[[nodiscard]] inline std::uint64_t dist_mix(std::uint64_t fp,
                                            std::uint64_t frame_hash) noexcept {
  return (fp ^ frame_hash) * 0x100000001b3ULL;
}

// Big-endian scalar packing, matching the serve frame header convention.
inline void dist_put_u32(std::vector<std::uint8_t>& out,
                         std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
inline void dist_put_u64(std::vector<std::uint8_t>& out,
                         std::uint64_t v) {
  dist_put_u32(out, static_cast<std::uint32_t>(v >> 32));
  dist_put_u32(out, static_cast<std::uint32_t>(v));
}
inline void dist_put_u16(std::vector<std::uint8_t>& out,
                         std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
[[nodiscard]] inline std::uint16_t dist_get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(p[0]) << 8) |
                                    static_cast<std::uint16_t>(p[1]));
}
[[nodiscard]] inline std::uint32_t dist_get_u32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}
[[nodiscard]] inline std::uint64_t dist_get_u64(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint64_t>(dist_get_u32(p)) << 32) |
         dist_get_u32(p + 4);
}

// -- Message payload codec ---------------------------------------------------

/// How a message type crosses the rank boundary. The engine encodes at
/// route time (parent side — the sender; a handler's sends are encoded
/// rank-side by `sim::RankActorEnv`), the payload bytes ride the frames out
/// to the owning rank's calendar ring, and that rank decodes right before
/// the handler runs. The original in-memory object is dropped at encode
/// time, so a codec bug is a failed differential test, not a silent
/// fallback.
///
/// The primary template is the byte-image codec for trivially-copyable
/// payloads; `sim::WireFormat` reports them unmeasured, so their wire cost
/// is transport bookkeeping only. Driver vocabularies specialize below.
template <typename Msg>
struct DistMsgAdapter {
  static_assert(std::is_trivially_copyable_v<Msg>,
                "DistMsgAdapter needs a trivially-copyable payload or an "
                "explicit specialization (see GhsMsg/ConntMsg below)");

  static void encode(const Msg& m, BitWriter& w, const sim::WireFormat<Msg>&) {
    std::uint8_t raw[sizeof(Msg)];
    std::memcpy(raw, &m, sizeof(Msg));
    for (const std::uint8_t b : raw) w.write(b, 8);
  }
  [[nodiscard]] static Msg decode(BitReader& r, const sim::WireFormat<Msg>&) {
    std::uint8_t raw[sizeof(Msg)];
    for (std::uint8_t& b : raw) b = static_cast<std::uint8_t>(r.read(8));
    Msg m;
    std::memcpy(&m, raw, sizeof(Msg));
    return m;
  }
};

/// Classic GHS vocabulary: the bit-packed tag+payload codec of ghs_wire.hpp
/// under the engine's WireContext — the exact encoding `encoded_bits()`
/// (and therefore every charged `Accounting::bits`) measures.
template <>
struct DistMsgAdapter<GhsMsg> {
  static void encode(const GhsMsg& m, BitWriter& w,
                     const sim::WireFormat<GhsMsg>& wf) {
    proto::encode(m, w, wf.ctx);
  }
  [[nodiscard]] static GhsMsg decode(BitReader& r,
                                     const sim::WireFormat<GhsMsg>& wf) {
    return decode_ghs(r, wf.ctx);
  }
};

/// Co-NNT vocabulary (connt_wire.hpp), same contract.
template <>
struct DistMsgAdapter<ConntMsg> {
  static void encode(const ConntMsg& m, BitWriter& w,
                     const sim::WireFormat<ConntMsg>& wf) {
    proto::encode(m, w, wf.ctx);
  }
  [[nodiscard]] static ConntMsg decode(BitReader& r,
                                       const sim::WireFormat<ConntMsg>& wf) {
    return decode_connt(r, wf.ctx);
  }
};

}  // namespace emst::proto
