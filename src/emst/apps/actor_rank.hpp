// Rank worker loop for the distributed engine (docs/DISTRIBUTED.md).
//
// `sim::DistributedNetwork::install_actor` forks one of these per rank. A
// rank process owns a replica of the NodeActor state for its node slice and
// EXECUTES the message handlers and choreographed steps locally.
// Everything externally visible a handler does is captured by
// `sim::RankActorEnv` as a fixed-layout effect record and shipped home in
// the ACTOR_DRAINED / ACTOR_STEPPED ledger; the parent replays that ledger
// in the serial global order against its own meter, fault clock and
// staging queues, so the accounting stream stays bitwise-identical to the
// in-process engines while the computation itself runs out here.
//
// The transport skeleton: serve-framed chunks, fingerprint-verify-before-
// parse, the D+1-bucket calendar ring with the per-link FIFO clamp, and
// by-receiver ordering of the due bucket (sim::ReceiverOrder, the routine
// sim::Network drains with). On top of that the rank keeps two
// pieces of protocol state:
//
//  - a local deferred FIFO holding the raw payload bytes of deliveries the
//    handler deferred — the parent's deferred-queue model reproduces its
//    order exactly, entry for entry. For a `sim::VersionedActor` each entry
//    also records its receiver's version, and a retry whose receiver still
//    has it is re-parked without a handler call (the ledger entry is the
//    same zero-effect redeferral the handler would have produced);
//  - a mirrored FaultInjector carrying the crash schedule (static windows
//    from the model at install time; chaos injections arrive per round in
//    the final ACTOR_ROUND chunk). The rank classifies crash drops with the
//    mirror so it can skip the handler; the parent re-classifies with the
//    authoritative clock and asserts agreement.
#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "emst/proto/dist_wire.hpp"
#include "emst/serve/framing.hpp"
#include "emst/sim/actor.hpp"
#include "emst/sim/fault.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/wire.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/flat_map.hpp"

namespace emst::apps {

/// Everything an actor worker needs from the engine. The spans/pointers
/// reference the parent's memory, carried into the child as copy-on-write
/// pages by fork — nothing topology-sized is serialized at spawn.
template <typename Msg>
struct ActorRankCtx {
  int fd = -1;
  std::size_t rank = 0;
  std::uint32_t max_extra_delay = 0;
  std::span<const std::uint32_t> node_rank;  ///< node → owning rank
  const sim::WireFormat<Msg>* wire = nullptr;
  bool faulty = false;
  sim::ActorTestHooks hooks{};
};

namespace detail {

static_assert(proto::kDistMaxFramePayloadBytes == serve::kMaxFramePayloadBytes,
              "dist chunk budget must match the serve frame cap");

// Child exit codes beyond 0 (clean EOF). The parent reports these verbatim
// in its teardown diagnostic, so keep them distinct per failure mode.
inline constexpr int kExitDesync = 3;    // fingerprint mismatch (after reporting)
inline constexpr int kExitCorrupt = 4;   // FrameBuffer latched corrupt
inline constexpr int kExitBadFrame = 5;  // wrong version / opcode / truncated body

/// One ingested message waiting in the rank's calendar ring. Distance rides
/// as its raw bit image — the rank hands it to the handler unchanged and
/// never does float arithmetic on it, so nothing here can perturb the
/// parent's accounting.
struct Item {
  std::uint32_t from;
  std::uint32_t to;
  std::uint64_t distance_bits;
  std::uint32_t bits;
  std::vector<std::uint8_t> payload;
};

/// A deferred delivery in the rank's FIFO and its receiver's version when
/// it was parked (always 0 for actors without `version`).
struct Parked {
  Item item;
  std::uint32_t version = 0;
};

/// Write all of `data` to the socket `fd`; false on any error but EINTR.
/// Shared by both ends of a rank channel. MSG_NOSIGNAL: a dead peer must
/// surface as a reported error (EPIPE), never as a SIGPIPE kill.
inline bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

inline void frame_and_send(int fd, const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  out.reserve(serve::kFrameHeaderBytes + body.size());
  out.push_back(static_cast<std::uint8_t>(proto::kDistProtocolVersion >> 8));
  out.push_back(static_cast<std::uint8_t>(proto::kDistProtocolVersion));
  const auto len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  out.insert(out.end(), body.begin(), body.end());
  (void)write_all(fd, out.data(), out.size());
}

/// Start a chunk body for any round-scoped opcode; flags and count (bytes
/// 1 and 10..13) are patched at finish.
inline void begin_chunk(std::vector<std::uint8_t>& body, std::uint8_t opcode,
                        std::uint64_t round) {
  body.clear();
  body.push_back(opcode);
  body.push_back(0);  // flags, patched at finish
  proto::dist_put_u64(body, round);
  proto::dist_put_u32(body, 0);  // count, patched at finish
}

inline void patch_chunk(std::vector<std::uint8_t>& body, std::uint8_t flags,
                        std::uint32_t count) {
  body[1] = flags;
  body[10] = static_cast<std::uint8_t>(count >> 24);
  body[11] = static_cast<std::uint8_t>(count >> 16);
  body[12] = static_cast<std::uint8_t>(count >> 8);
  body[13] = static_cast<std::uint8_t>(count);
}

/// Mix the finished chunk into the collective chain, append the trailer and
/// put it on the wire — the send half every rank reply shares.
inline void seal_and_send(int fd, std::vector<std::uint8_t>& body,
                          std::uint64_t& chain) {
  chain = proto::dist_mix(chain, proto::dist_hash(body.data(), body.size()));
  proto::dist_put_u64(body, chain);
  frame_and_send(fd, body);
}

/// Reconstruct the in-memory delivery from its wire image, asserting the
/// decode consumed exactly the accounted size.
template <typename Msg>
[[nodiscard]] inline sim::Delivery<Msg> decode_item(
    const Item& item, const sim::WireFormat<Msg>& wf) {
  proto::BitReader r(item.payload);
  Msg m = proto::DistMsgAdapter<Msg>::decode(r, wf);
  if constexpr (sim::WireFormat<Msg>::kMeasured) {
    EMST_ASSERT_MSG(r.bit_count() == item.bits,
                    "rank decode consumed a different size than accounted");
  }
  return {item.from, item.to, std::bit_cast<double>(item.distance_bits),
          std::move(m)};
}

}  // namespace detail

/// The child entry point installed by `DistributedNetwork::install_actor`.
/// Returns the exit status (0 = clean EOF shutdown; the detail::kExit*
/// codes otherwise). `actor` is this rank's replica; `mirror` the crash-schedule
/// mirror described above.
template <typename Msg, typename Actor>
int actor_rank_main(const ActorRankCtx<Msg>& ctx, Actor& actor,
                    sim::FaultInjector& mirror) {
  serve::FrameBuffer in;
  std::uint64_t chain = proto::kDistFingerprintSeed;

  // Calendar ring + FIFO clamp. The engine is crash-only by contract
  // (asserted at construction), so there are no loss draws.
  std::vector<std::vector<detail::Item>> buckets(ctx.max_extra_delay + 1);
  std::size_t head = 0;
  support::FlatMap64 last_due;

  std::vector<detail::Parked> fifo;  ///< deferred deliveries, FIFO order
  std::vector<std::uint32_t> steplist;  ///< accumulated step wire list
  sim::RankActorEnv<Msg> env(*ctx.wire);

  std::vector<std::uint8_t> rdbuf(1 << 16);
  std::vector<std::uint8_t> body;
  sim::ReceiverOrder order;
  serve::Frame frame;

  const bool kill_armed = ctx.hooks.kill_rank == ctx.rank;
  auto is_local = [&ctx](std::uint32_t u) {
    return ctx.node_rank[u] == ctx.rank;
  };
  auto version_of = [&actor](std::uint32_t u) -> std::uint32_t {
    if constexpr (sim::VersionedActor<Actor>) {
      return actor.version(u);
    } else {
      return 0;
    }
  };

  for (;;) {
    // -- Receive one frame (blocking; EOF = clean shutdown) ------------------
    while (!in.next(frame)) {
      if (in.corrupt()) return detail::kExitCorrupt;
      const ssize_t n = ::read(ctx.fd, rdbuf.data(), rdbuf.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return 0;
      }
      if (n == 0) return 0;
      in.feed(rdbuf.data(), static_cast<std::size_t>(n));
    }
    if (frame.version != proto::kDistProtocolVersion)
      return detail::kExitBadFrame;
    const std::vector<std::uint8_t>& p = frame.payload;
    if (p.size() < proto::kDistFrameFixedBytes + proto::kDistFingerprintBytes)
      return detail::kExitBadFrame;
    const std::uint8_t op = p[0];
    const bool last_chunk = (p[1] & proto::kDistFlagLast) != 0;
    const std::uint64_t round = proto::dist_get_u64(p.data() + 2);

    // -- Collective fingerprint: verify BEFORE parsing ------------------------
    // The chain mixes the body of every frame in both directions; the
    // parent's trailer is ITS chain after sending this chunk. A mismatch
    // means a corrupted frame or a skipped/extra collective — report it
    // (rank, round, expected vs actual) and exit; never parse, never hang.
    const std::size_t body_len = p.size() - proto::kDistFingerprintBytes;
    chain = proto::dist_mix(chain, proto::dist_hash(p.data(), body_len));
    const std::uint64_t expected = proto::dist_get_u64(p.data() + body_len);
    if (expected != chain) {
      body.clear();
      body.push_back(proto::kDistOpDesync);
      body.push_back(proto::kDistFlagLast);
      proto::dist_put_u64(body, round);
      proto::dist_put_u64(body, expected);
      proto::dist_put_u64(body, chain);
      detail::frame_and_send(ctx.fd, body);
      return detail::kExitDesync;
    }

    switch (op) {
      // ---------------------------------------------------------------------
      case proto::kDistOpActorRound: {
        // Ingest this chunk's routed messages. Eagerly emitted chunks arrive
        // while the parent is still replaying the previous round — ingest is
        // order-insensitive, so overlapping the barrier halves is free.
        const std::uint32_t count = proto::dist_get_u32(p.data() + 10);
        std::size_t off = proto::kDistFrameFixedBytes;
        for (std::uint32_t i = 0; i < count; ++i) {
          if (off + proto::kDistRoundRecordBytes > body_len)
            return detail::kExitBadFrame;
          std::uint64_t due = proto::dist_get_u64(&p[off]);
          const std::uint32_t from = proto::dist_get_u32(&p[off + 8]);
          const std::uint32_t to = proto::dist_get_u32(&p[off + 12]);
          const std::uint64_t distance_bits = proto::dist_get_u64(&p[off + 16]);
          const std::uint32_t bits = proto::dist_get_u32(&p[off + 24]);
          const std::uint32_t plen = proto::dist_get_u32(&p[off + 28]);
          off += proto::kDistRoundRecordBytes;
          if (off + plen > body_len) return detail::kExitBadFrame;
          if (ctx.max_extra_delay > 0) {
            const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) |
                                      static_cast<std::uint64_t>(to);
            const auto slot = last_due.find_or_insert(key, due);
            if (!slot.inserted) {
              due = std::max(due, *slot.value);
              *slot.value = due;
            }
          }
          EMST_ASSERT(due >= round && due - round <= ctx.max_extra_delay);
          std::size_t idx = head + static_cast<std::size_t>(due - round);
          if (idx >= buckets.size()) idx -= buckets.size();
          buckets[idx].push_back(
              {from, to, distance_bits, bits,
               std::vector<std::uint8_t>(
                   p.begin() + static_cast<std::ptrdiff_t>(off),
                   p.begin() + static_cast<std::ptrdiff_t>(off + plen))});
          off += plen;
        }
        if (!last_chunk) break;

        // The final chunk carries the chaos windows injected this round; the
        // mirror must know them before the due-bucket crash classification.
        if (off + 4 > body_len) return detail::kExitBadFrame;
        const std::uint32_t wcount = proto::dist_get_u32(&p[off]);
        off += 4;
        for (std::uint32_t i = 0; i < wcount; ++i) {
          if (off + 20 > body_len) return detail::kExitBadFrame;
          sim::CrashWindow w;
          w.node = proto::dist_get_u32(&p[off]);
          w.from = proto::dist_get_u64(&p[off + 4]);
          w.until = proto::dist_get_u64(&p[off + 12]);
          mirror.add_crash_window(w);
          off += 20;
        }
        mirror.advance_to(round);

        // -- Execute the round: retries first (local FIFO order), then the
        // due bucket in by-receiver order — the exact per-rank projection of
        // the serial driver's retry-then-batch sweep.
        actor.on_round_start(round);
        std::vector<detail::Parked> retry = std::move(fifo);
        fifo = {};
        detail::begin_chunk(body, proto::kDistOpActorDrained, round);
        std::uint32_t chunk_count = 0;
        auto flush_if_needed = [&](std::size_t entry_bytes) {
          if (body.size() + entry_bytes > proto::kDistMaxChunkBodyBytes) {
            detail::patch_chunk(body, 0, chunk_count);
            detail::seal_and_send(ctx.fd, body, chain);
            detail::begin_chunk(body, proto::kDistOpActorDrained, round);
            chunk_count = 0;
          }
        };
        auto maybe_kill = [&]() {
          // Test hook: die mid-round, immediately before a handler runs —
          // the parent's barrier read must report the death, not hang.
          if (kill_armed && round >= ctx.hooks.kill_round)
            std::raise(SIGKILL);
        };
        for (detail::Parked& parked : retry) {
          env.begin_entry();
          const std::uint32_t node = parked.item.to;
          // A receiver still at the version the delivery was parked at would
          // defer it again: keep its FIFO slot without running the handler.
          const bool unchanged =
              sim::VersionedActor<Actor> && version_of(node) == parked.version;
          bool redeferred = true;
          if (!unchanged) {
            maybe_kill();
            const sim::Delivery<Msg> d =
                detail::decode_item(parked.item, *ctx.wire);
            actor.on_message(d, env);
            redeferred = env.deferred();
          }
          flush_if_needed(proto::kDistEntryRetryFixedBytes +
                          env.effects().size());
          body.push_back(proto::kDistEntryRetry);
          proto::dist_put_u32(body, node);
          body.push_back(redeferred ? 1 : 0);
          proto::dist_put_u16(body, env.effect_count());
          body.insert(body.end(), env.effects().begin(), env.effects().end());
          ++chunk_count;
          if (redeferred)
            fifo.push_back({std::move(parked.item), version_of(node)});
        }
        std::vector<detail::Item>& bucket = buckets[head];
        head = head + 1 == buckets.size() ? 0 : head + 1;
        order.for_each(bucket, ctx.node_rank.size(), [&](detail::Item& item) {
          std::uint8_t status = proto::kDistDeliveryDispatched;
          env.begin_entry();
          if (ctx.faulty && mirror.crashed(item.to)) {
            // Receiver is down at the mirror clock: no handler runs, the
            // entry ships with zero effects and the parent emits the drop
            // event at this entry's merge position.
            status = proto::kDistDeliveryCrashDropped;
          } else {
            maybe_kill();
            const sim::Delivery<Msg> d = detail::decode_item(item, *ctx.wire);
            actor.on_message(d, env);
            if (env.deferred()) status = proto::kDistDeliveryDeferred;
          }
          flush_if_needed(proto::kDistEntryDeliveryFixedBytes +
                          env.effects().size());
          body.push_back(proto::kDistEntryDelivery);
          proto::dist_put_u32(body, item.from);
          proto::dist_put_u32(body, item.to);
          proto::dist_put_u64(body, item.distance_bits);
          proto::dist_put_u32(body, item.bits);
          body.push_back(status);
          proto::dist_put_u16(body, env.effect_count());
          body.insert(body.end(), env.effects().begin(), env.effects().end());
          ++chunk_count;
          if (status == proto::kDistDeliveryDeferred) {
            const std::uint32_t version = version_of(item.to);
            fifo.push_back({std::move(item), version});
          }
        });
        bucket.clear();
        detail::patch_chunk(body, proto::kDistFlagLast, chunk_count);
        detail::seal_and_send(ctx.fd, body, chain);
        break;
      }
      // ---------------------------------------------------------------------
      case proto::kDistOpActorStep: {
        if (body_len < proto::kDistStepFixedBytes) return detail::kExitBadFrame;
        const std::uint8_t kind = p[10];
        const std::uint64_t param = proto::dist_get_u64(p.data() + 11);
        const std::uint64_t fault_round = proto::dist_get_u64(p.data() + 19);
        const std::uint32_t count = proto::dist_get_u32(p.data() + 27);
        std::size_t off = proto::kDistStepFixedBytes;
        if (off + static_cast<std::size_t>(count) * 4 > body_len)
          return detail::kExitBadFrame;
        for (std::uint32_t i = 0; i < count; ++i) {
          steplist.push_back(proto::dist_get_u32(&p[off]));
          off += 4;
        }
        if (!last_chunk) break;
        mirror.advance_to(fault_round);
        // An epoch restart resets the deferred model on both sides.
        if (kind == proto::kDistStepRestart) fifo.clear();
        detail::begin_chunk(body, proto::kDistOpActorStepped, round);
        std::uint32_t chunk_count = 0;
        auto emit = [&](std::uint32_t u, std::uint8_t flag) {
          const std::size_t bytes =
              proto::kDistStepGroupFixedBytes + env.effects().size();
          if (body.size() + bytes > proto::kDistMaxChunkBodyBytes) {
            detail::patch_chunk(body, 0, chunk_count);
            detail::seal_and_send(ctx.fd, body, chain);
            detail::begin_chunk(body, proto::kDistOpActorStepped, round);
            chunk_count = 0;
          }
          proto::dist_put_u32(body, u);
          body.push_back(flag);
          proto::dist_put_u16(body, env.effect_count());
          body.insert(body.end(), env.effects().begin(), env.effects().end());
          ++chunk_count;
        };
        actor.step(kind, param, std::span<const std::uint32_t>(steplist),
                   mirror, ctx.faulty, is_local, env, emit);
        steplist.clear();
        detail::patch_chunk(body, proto::kDistFlagLast, chunk_count);
        detail::seal_and_send(ctx.fd, body, chain);
        break;
      }
      // ---------------------------------------------------------------------
      case proto::kDistOpActorHarvest: {
        detail::begin_chunk(body, proto::kDistOpActorHarvested, round);
        std::uint32_t chunk_count = 0;
        for (std::uint32_t u = 0;
             u < static_cast<std::uint32_t>(ctx.node_rank.size()); ++u) {
          if (!is_local(u)) continue;
          proto::BitWriter w;
          actor.encode_node(u, w);
          const std::vector<std::uint8_t>& img = w.bytes();
          // +8 keeps room for the trailing invocation counter, which must
          // ride the final chunk.
          if (body.size() + proto::kDistHarvestNodeFixedBytes + img.size() + 8 >
              proto::kDistMaxChunkBodyBytes) {
            detail::patch_chunk(body, 0, chunk_count);
            detail::seal_and_send(ctx.fd, body, chain);
            detail::begin_chunk(body, proto::kDistOpActorHarvested, round);
            chunk_count = 0;
          }
          proto::dist_put_u32(body, u);
          proto::dist_put_u32(body, static_cast<std::uint32_t>(img.size()));
          body.insert(body.end(), img.begin(), img.end());
          ++chunk_count;
        }
        proto::dist_put_u64(body, actor.invocations());
        detail::patch_chunk(body, proto::kDistFlagLast, chunk_count);
        detail::seal_and_send(ctx.fd, body, chain);
        break;
      }
      default:
        return detail::kExitBadFrame;
    }
  }
}

}  // namespace emst::apps
