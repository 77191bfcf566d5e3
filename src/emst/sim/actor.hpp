// Node-actor runtime: the shared vocabulary between drivers that express
// their per-node handlers as an actor, the serial engines that dispatch
// those handlers in-process, and the distributed engine that executes them
// *inside the rank processes* (docs/DISTRIBUTED.md §2).
//
// A NodeActor packages everything a protocol does at a single node:
//
//   actor.on_round_start(round)       — per-round bookkeeping hook, invoked
//                                       once per round on every replica;
//   actor.on_message(delivery, env)   — the message handler; may only read
//                                       and write state of delivery.to
//                                       (plus the topology), and describes
//                                       every externally visible action
//                                       through `env`;
//   actor.encode_node / decode_node   — proto::BitWriter codec for one
//                                       node's state, used by the harvest
//                                       collective to ship rank-resident
//                                       state home;
//   actor.invocations()               — handler-execution counter, the
//                                       acceptance witness for execution
//                                       placement (rank-resident runs keep
//                                       the parent's copy at zero);
//   actor.version(u)       (optional) — per-node dispatch version, see
//                                       `VersionedActor`.
//
// The `env` is duck-typed with four verbs — unicast / broadcast / defer /
// note. Serial engines pass an env that charges and stages immediately
// (byte-identical to the pre-actor inline drivers); the rank loop passes a
// `RankActorEnv` that appends fixed-layout effect records
// (proto/dist_wire.hpp) which the parent replays in serial order against
// its own meter, fault clock and staging queues. Receiver-locality of
// on_message is what makes the two placements indistinguishable.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <vector>

#include "emst/proto/dist_wire.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/support/assert.hpp"

namespace emst::sim {

/// Aggregate view of one actor-mode round barrier, returned by
/// `DistributedNetwork::actor_collect_round`. The counts feed the drivers'
/// stall detection (fail-stop degradation) exactly as the serial batch /
/// retry / deferred sizes do.
struct ActorRoundInfo {
  std::size_t batch = 0;           ///< deliveries dispatched this round
  std::size_t retried = 0;         ///< deferred entries retried this round
  std::size_t deferred_after = 0;  ///< deferred-queue size after the round
};

/// Fault-injection hooks for the actor rank loop (tests only): the chosen
/// rank raises SIGKILL on itself the first time it is about to *execute a
/// handler* at >= kill_round — mid-round, after ingesting the parent's
/// frames, so the parent's barrier read observes a channel that died while
/// computation (not routing) was in flight.
struct ActorTestHooks {
  std::size_t kill_rank = static_cast<std::size_t>(-1);
  std::uint64_t kill_round = 0;
};

/// The NodeActor shape (see the header comment). `on_message` is
/// env-templated, so the concept checks the placement-independent surface;
/// the dispatch sites instantiate the handler against their concrete env.
template <typename A>
concept NodeActorState = requires(A a, const A ca, NodeId u, std::uint64_t round,
                                  proto::BitWriter& w, proto::BitReader& r) {
  a.on_round_start(round);
  ca.encode_node(u, w);
  a.decode_node(u, r);
  { ca.invocations() } -> std::convertible_to<std::uint64_t>;
};

/// Optional NodeActor hook: a per-node version that changes whenever a
/// handler may have changed the node's state. The rank loop records the
/// receiver's version with each deferred delivery and re-parks a retry whose
/// receiver still has it without running the handler. That is exact only
/// for actors whose deferring handlers read the receiver's state and write
/// nothing (classic GHS, ghs/classic_actor.hpp); actors without the hook
/// retry every deferred delivery.
template <typename A>
concept VersionedActor = requires(const A ca, NodeId u) {
  { ca.version(u) } -> std::convertible_to<std::uint32_t>;
};

// -- Rank-side effect ledger -------------------------------------------------

/// The env the actor rank loop hands to handlers: every verb appends one
/// effect record to the current ledger entry. Payloads are encoded here —
/// in the rank, through the same DistMsgAdapter codec the parent uses for
/// its own sends — so the parent replays opaque bytes and the bits/bytes
/// identity keeps holding end to end.
template <typename Msg>
class RankActorEnv {
 public:
  explicit RankActorEnv(const WireFormat<Msg>& wf) : wf_(&wf) {}

  /// Start recording a fresh entry (clears the effect scratch).
  void begin_entry() {
    effects_.clear();
    count_ = 0;
    deferred_ = false;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& effects() const {
    return effects_;
  }
  [[nodiscard]] std::uint16_t effect_count() const { return count_; }
  [[nodiscard]] bool deferred() const { return deferred_; }

  void unicast(NodeId /*from*/, NodeId to, MsgKind kind, std::uint8_t dtag,
               std::uint32_t fragment, double reach, const Msg& m) {
    proto::BitWriter w;
    proto::DistMsgAdapter<Msg>::encode(m, w, *wf_);
    const std::uint32_t bits = wf_->bits(m);
    if constexpr (WireFormat<Msg>::kMeasured) {
      EMST_ASSERT_MSG(w.bit_count() == bits,
                      "actor effect: encoded size deviates from the measured "
                      "wire bits");
    }
    const auto& payload = w.bytes();
    effects_.push_back(proto::kDistEffectUnicast);
    effects_.push_back(static_cast<std::uint8_t>(kind));
    effects_.push_back(dtag);
    proto::dist_put_u32(effects_, fragment);
    proto::dist_put_u32(effects_, to);
    proto::dist_put_u64(effects_, std::bit_cast<std::uint64_t>(reach));
    proto::dist_put_u32(effects_, bits);
    proto::dist_put_u32(effects_, static_cast<std::uint32_t>(payload.size()));
    effects_.insert(effects_.end(), payload.begin(), payload.end());
    ++count_;
  }

  /// Unicast over a link of neighbors(from): the same record as the id
  /// overload with reach link.w. Rank frames carry no port, so the receiving
  /// rank's delivery has port graph::kNoSlot.
  void unicast(NodeId from, const graph::Neighbor& link, MsgKind kind,
               std::uint8_t dtag, std::uint32_t fragment, const Msg& m) {
    unicast(from, link.id, kind, dtag, fragment, link.w, m);
  }

  void broadcast(NodeId /*from*/, double radius, MsgKind kind,
                 std::uint8_t dtag, std::uint32_t fragment, const Msg& m) {
    proto::BitWriter w;
    proto::DistMsgAdapter<Msg>::encode(m, w, *wf_);
    const std::uint32_t bits = wf_->bits(m);
    if constexpr (WireFormat<Msg>::kMeasured) {
      EMST_ASSERT_MSG(w.bit_count() == bits,
                      "actor effect: encoded size deviates from the measured "
                      "wire bits");
    }
    const auto& payload = w.bytes();
    effects_.push_back(proto::kDistEffectBroadcast);
    effects_.push_back(static_cast<std::uint8_t>(kind));
    effects_.push_back(dtag);
    proto::dist_put_u32(effects_, fragment);
    proto::dist_put_u64(effects_, std::bit_cast<std::uint64_t>(radius));
    proto::dist_put_u32(effects_, bits);
    proto::dist_put_u32(effects_, static_cast<std::uint32_t>(payload.size()));
    effects_.insert(effects_.end(), payload.begin(), payload.end());
    ++count_;
  }

  /// The handler could not process the delivery at its current level; the
  /// rank loop re-queues the *original payload bytes* on its local FIFO and
  /// flags the entry so the parent's deferred-queue model stays in lock
  /// step.
  void defer(const Delivery<Msg>& /*d*/) { deferred_ = true; }

  /// Driver-defined scalar observation shipped to the parent replay sink
  /// (Co-NNT: chosen connection target + distance bit image).
  void note(std::uint32_t a, std::uint64_t b) {
    effects_.push_back(proto::kDistEffectNote);
    proto::dist_put_u32(effects_, a);
    proto::dist_put_u64(effects_, b);
    ++count_;
  }

 private:
  const WireFormat<Msg>* wf_;
  std::vector<std::uint8_t> effects_;
  std::uint16_t count_ = 0;
  bool deferred_ = false;
};

// -- Parent-side effect decoding ---------------------------------------------

/// One decoded effect record. For unicast `reach_bits` is the bit image of
/// the send's reach (classic GHS charges the neighbor-slot weight, which can
/// differ from d(from,to) only by the driver's choice — the parent still
/// recomputes the *charged* distance from its own topology, exactly like
/// the serial engine); for broadcast it is the radius image.
struct EffectView {
  std::uint8_t tag = 0;
  MsgKind kind = MsgKind::kData;
  std::uint8_t dtag = 0;
  std::uint32_t fragment = 0;
  NodeId to = 0;
  std::uint64_t reach_bits = 0;
  std::uint32_t bits = 0;
  const std::uint8_t* payload = nullptr;
  std::uint32_t plen = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

/// Decode one effect record at `p`; returns the position past it. Bounds
/// violations abort — a malformed ledger is a protocol bug, never data.
[[nodiscard]] inline const std::uint8_t* decode_effect(const std::uint8_t* p,
                                                       const std::uint8_t* end,
                                                       EffectView& out) {
  EMST_ASSERT(p < end);
  out.tag = *p++;
  switch (out.tag) {
    case proto::kDistEffectUnicast: {
      EMST_ASSERT(end - p >=
                  static_cast<std::ptrdiff_t>(
                      proto::kDistEffectUnicastFixedBytes - 1));
      out.kind = static_cast<MsgKind>(*p++);
      out.dtag = *p++;
      out.fragment = proto::dist_get_u32(p);
      out.to = proto::dist_get_u32(p + 4);
      out.reach_bits = proto::dist_get_u64(p + 8);
      out.bits = proto::dist_get_u32(p + 16);
      out.plen = proto::dist_get_u32(p + 20);
      p += 24;
      EMST_ASSERT(end - p >= static_cast<std::ptrdiff_t>(out.plen));
      out.payload = p;
      return p + out.plen;
    }
    case proto::kDistEffectBroadcast: {
      EMST_ASSERT(end - p >=
                  static_cast<std::ptrdiff_t>(
                      proto::kDistEffectBroadcastFixedBytes - 1));
      out.kind = static_cast<MsgKind>(*p++);
      out.dtag = *p++;
      out.fragment = proto::dist_get_u32(p);
      out.reach_bits = proto::dist_get_u64(p + 4);
      out.bits = proto::dist_get_u32(p + 12);
      out.plen = proto::dist_get_u32(p + 16);
      p += 20;
      EMST_ASSERT(end - p >= static_cast<std::ptrdiff_t>(out.plen));
      out.payload = p;
      return p + out.plen;
    }
    case proto::kDistEffectNote: {
      EMST_ASSERT(end - p >=
                  static_cast<std::ptrdiff_t>(proto::kDistEffectNoteBytes - 1));
      out.a = proto::dist_get_u32(p);
      out.b = proto::dist_get_u64(p + 4);
      return p + 12;
    }
    default:
      EMST_ASSERT_MSG(false, "actor effect ledger: unknown effect tag");
      return end;  // unreachable
  }
}

}  // namespace emst::sim
