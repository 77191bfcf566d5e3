// Process-level distributed simulation engine (docs/DISTRIBUTED.md).
//
// `DistributedNetwork<Msg>` keeps `Network<Msg>`'s send side (unicast,
// broadcast, pending, meter, faults, telemetry) but executes the message
// handlers of a node actor (sim/actor.hpp) inside separate worker
// PROCESSES — one rank per part of a spatial partition, forked by
// `install_actor` and connected by a socketpair carrying serve-framed
// binary messages. It produces BITWISE-identical results to the serial
// engine running the same actor — same delivery sequences, same meter
// totals (float addition order preserved), same telemetry event stream,
// same fault fates — at every rank count, because:
//
//  1. Partition. A g×g grid of tiles over the unit square (g = ⌈√R⌉),
//     tiles round-robin onto R ranks. A message lives with its RECEIVER's
//     rank, so per-link state (the FIFO clamp) and the receiver's actor
//     state are rank-private.
//  2. Per-rank calendar queues. Each rank process owns a D+1-bucket ring
//     (apps/actor_rank.hpp). Records arrive in global send-sequence order,
//     the rank runs its due bucket through the actor's handlers in stable
//     by-receiver order, and ships back an effect ledger; the parent's
//     receiver-keyed R-way merge reconstructs the global (receiver,
//     sequence) order tie-free.
//  3. Order-sensitive state stays in the parent. Charges, suppressions,
//     telemetry, drop events, crash classification, the fault clock, the
//     chaos controller, and the oracle all run in the parent's serial
//     sections; sends — the caller's and the replayed handler effects — are
//     staged and replayed through the ONE meter in send order. Ranks do
//     only receiver-local work: ingest, clamp, by-receiver ordering, and the
//     handlers themselves.
//  4. The wire is real. Payloads cross the boundary as proto-codec bytes
//     (`proto::DistMsgAdapter`): encoded at route time (or rank-side, for
//     handler effects), decoded by the receiving rank — the in-memory object
//     does NOT travel, so for measured formats the bytes on the wire are the
//     accounted bits rounded up to bytes (asserted per message).
//
// Every parent↔rank exchange is a collective with a PARCOACH-style
// fingerprint: both sides chain an FNV-1a hash over every frame body in
// both directions, the sender's chain rides each frame, and the receiver
// compares after mixing. Any desynchronization — corrupted frame, skipped
// or repeated collective, rank restart — aborts with rank, round, and
// expected/actual fingerprints plus the recent collective log, instead of
// deadlocking at the barrier. A rank process death is detected as EOF and
// reported with the rank's exit status or signal; teardown closes channels
// and reaps every child (no zombies).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "emst/apps/actor_rank.hpp"
#include "emst/proto/dist_wire.hpp"
#include "emst/sim/actor.hpp"
#include "emst/serve/framing.hpp"
#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/topology.hpp"
#include "emst/sim/wire.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/rng.hpp"

namespace emst::sim {

namespace dist {

/// One collective exchange remembered for desync diagnostics.
struct CollectiveLogEntry {
  std::uint8_t opcode = 0;
  std::uint64_t round = 0;
  std::uint32_t count = 0;
  std::uint64_t hash = 0;
};

/// The non-templated process plumbing behind `DistributedNetwork`: rank
/// lifecycle (socketpair + fork + reap), framed channel IO, and the fatal
/// diagnostic path. The engine template injects the child entry point
/// (`apps::actor_rank_main` for its actor type) at `install_actor`.
class ProcessGroup {
 public:
  using ChildEntry = std::function<int(int fd, std::size_t rank)>;

  ProcessGroup() = default;
  ~ProcessGroup();
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  /// Fork `count` rank processes. Each child keeps only its own channel
  /// end, runs `entry(fd, rank)`, and `_exit`s with its return value.
  void spawn(std::size_t count, const ChildEntry& entry);

  [[nodiscard]] std::size_t size() const noexcept { return eps_.size(); }
  [[nodiscard]] int pid(std::size_t rank) const { return eps_[rank].pid; }

  /// Current round, included in every failure diagnostic.
  void set_round(std::uint64_t round) noexcept { round_ = round; }

  void send_frame(std::size_t rank, const std::vector<std::uint8_t>& body);
  [[nodiscard]] serve::Frame read_frame(std::size_t rank);
  void log_collective(std::size_t rank, std::uint8_t opcode,
                      std::uint64_t round, std::uint32_t count,
                      std::uint64_t hash);
  /// Report a failure on `rank` and abort. `exiting` marks failures after
  /// which the rank is on its way out — its channel hit EOF or a reset, or
  /// it replied DESYNC — so its exit status is waited for (bounded) rather
  /// than probed once.
  [[noreturn]] void fatal(std::size_t rank, const std::string& what,
                          bool exiting = false);

  /// Transport totals, frame headers included (the bench's bytes-on-wire).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }

 private:
  static constexpr std::size_t kCollectiveLogSize = 8;

  struct Endpoint {
    int fd = -1;
    int pid = -1;
    serve::FrameBuffer in;
    std::array<CollectiveLogEntry, kCollectiveLogSize> log{};
    std::size_t log_next = 0;
  };

  std::vector<Endpoint> eps_;
  std::vector<std::uint8_t> frame_scratch_;
  std::uint64_t round_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace dist

/// Runs on the materialized CSR (`sim::Topology`), like `Network`. The
/// parent computes every target and distance; ranks read the topology only
/// through the actor replica their handlers consult, inherited as
/// copy-on-write pages at fork.
template <typename Msg>
class DistributedNetwork {
 public:
  /// Marker for `make_engine`: the trailing constructor parameter is the
  /// rank count.
  static constexpr bool kDistributedEngine = true;

  /// Crash-only fault models only: a rank runs a handler on a delivery
  /// whose fate it must decide locally, and its fault mirror carries just
  /// the crash schedule. No rank process exists until `install_actor`.
  DistributedNetwork(const Topology& topo, geometry::PathLoss model = {},
                     bool unbounded_broadcast = false, DelayModel delays = {},
                     FaultModel faults = {}, Telemetry* telemetry = nullptr,
                     std::size_t ranks = 1)
      : topo_(topo),
        meter_(model),
        unbounded_broadcast_(unbounded_broadcast),
        delays_(delays),
        delay_rng_(delays.seed),
        faults_(faults),
        rank_count_(ranks == 0 ? 1 : ranks),
        mailboxes_(rank_count_),
        chains_(rank_count_, proto::kDistFingerprintSeed),
        ledgers_(rank_count_) {
    EMST_ASSERT_MSG(faults.loss == 0.0 && !faults.use_gilbert,
                    "the distributed engine supports crash-only fault models");
    meter_.attach_telemetry(telemetry);
    build_partition();
    if (faults_.enabled())
      faults_.set_chaos_env(topo_.node_count(), topo_.points());
  }

  DistributedNetwork(const DistributedNetwork&) = delete;
  DistributedNetwork& operator=(const DistributedNetwork&) = delete;

  // -- Send side (Network-compatible) -------------------------------------

  /// Send m from u to v; delivered next round. Charges d(u,v)^α (at the
  /// next round barrier, in issue order — the meter context active NOW is
  /// captured with the send, exactly as if the charge had happened inline).
  void unicast(NodeId u, NodeId v, Msg m) {
    EMST_ASSERT(u < topo_.node_count() && v < topo_.node_count() && u != v);
    const double d = topo_.distance(u, v);
    EMST_ASSERT_MSG(unbounded_broadcast_ ||
                        d <= topo_.max_radius() * (1.0 + 1e-12),
                    "unicast beyond the maximum transmission radius");
    stage_unicast(meter_context(), u, v, d, std::move(m));
  }

  /// Locally broadcast m from u at power radius `radius`. Charges radius^α.
  void broadcast(NodeId u, double radius, const Msg& m) {
    stage_broadcast(meter_context(), u, radius, Msg(m));
  }
  void broadcast(NodeId u, double radius, Msg&& m) {
    stage_broadcast(meter_context(), u, radius, std::move(m));
  }

  [[nodiscard]] bool pending() const noexcept {
    return staged_live_ > 0 || inflight_ > 0;
  }

  // -- Rank-resident execution ---------------------------------------------
  //
  // `install_actor` forks the rank processes, each owning a replica of the
  // actor's node states. The barrier verb is `actor_collect_round`: staged
  // sends route to the receivers' ranks, the due deliveries are EXECUTED
  // rank-side, and only a compact deterministic effect ledger comes home,
  // which the parent replays in the serial global order
  // (docs/DISTRIBUTED.md §2). Bitwise identity with the serial engines
  // holds because every order-sensitive consumer — meter, fault clock,
  // telemetry, chaos controller, oracle — still runs here, on the replayed
  // stream.

  /// Fork the rank processes carrying `actor`'s initial state
  /// (copy-on-write via fork — nothing topology-sized is serialized). Must
  /// run once, before any traffic.
  template <typename Actor>
  void install_actor(const Actor& actor, bool faulty) {
    static_assert(NodeActorState<Actor>);
    EMST_ASSERT_MSG(!installed(), "install_actor: actor already installed");
    EMST_ASSERT_MSG(now_ == 0 && ops_.empty() && inflight_ == 0,
                    "install_actor must run before any traffic");
    // The rank-side crash mirror: static windows + seed from the model;
    // the chaos controller, stats and the authoritative clock stay here
    // (controller injections ship per round in the final ACTOR_ROUND
    // chunk).
    const FaultModel& fm = faults_.model();
    FaultModel mirror;
    mirror.crashes = fm.crashes;
    mirror.seed = fm.seed;
    const ActorTestHooks hooks = actor_hooks_;
    group_.spawn(rank_count_,
                 [this, actor, mirror, faulty, hooks](int fd, std::size_t r) {
                   apps::ActorRankCtx<Msg> ctx;
                   ctx.fd = fd;
                   ctx.rank = r;
                   ctx.max_extra_delay = delays_.max_extra_delay;
                   ctx.node_rank = node_rank_;
                   ctx.wire = &wire_;
                   ctx.faulty = faulty;
                   ctx.hooks = hooks;
                   Actor replica = actor;
                   FaultInjector m(mirror);
                   return apps::actor_rank_main(ctx, replica, m);
                 });
  }

  /// Pre-spawn test hooks for the rank processes (set BEFORE install_actor).
  void set_actor_test_hooks(const ActorTestHooks& hooks) {
    EMST_ASSERT(!installed());
    actor_hooks_ = hooks;
  }

  /// The round barrier. Flushes the staged sends (charges, suppressions,
  /// routing), ticks the round, exchanges ACTOR_ROUND/ACTOR_DRAINED with
  /// every rank, and replays the returned effect ledger in the serial
  /// global order: crash classification first (pass A — drop events fire
  /// before any of this round's effects, like the serial drain), then the
  /// retries in the parent's deferred-model order (pass B), then the
  /// surviving deliveries in (receiver, sequence) merge order (pass C).
  /// `sink` observes the replay: on_send(dtag, reach) per send effect,
  /// on_note(node, a, b) per note, in its serial env's order.
  template <typename Sink>
  ActorRoundInfo actor_collect_round(Sink& sink) {
    EMST_ASSERT(installed());
    flush_staged();
    begin_round();
    group_.set_round(now_);
    windows_scratch_.clear();
    proto::dist_put_u32(windows_scratch_, static_cast<std::uint32_t>(
                                              pending_window_ship_.size()));
    for (const CrashWindow& w : pending_window_ship_) {
      proto::dist_put_u32(windows_scratch_, w.node);
      proto::dist_put_u64(windows_scratch_, w.from);
      proto::dist_put_u64(windows_scratch_, w.until);
    }
    pending_window_ship_.clear();
    for (std::size_t r = 0; r < rank_count_; ++r) send_actor_round(r);
    for (std::size_t r = 0; r < rank_count_; ++r) receive_actor_ledger(r);
    return replay_actor_round(sink);
  }

  /// Execute one choreographed phase step on every rank (wakeups, epoch
  /// restarts, Co-NNT probe/connect/reset sweeps). `wire_list` is the
  /// explicit node list shipped to the ranks (kDistStepWakeupList; its
  /// ORDER is preserved — the serial driver iterates it as given);
  /// `expected` is the parent's independently computed global invocation
  /// order, against which the ACTOR_STEPPED groups are matched node-for-
  /// node. Per group: sink.on_step_node(node, flag), then the effects
  /// replay.
  template <typename Sink>
  void actor_step(std::uint8_t kind, std::uint64_t param,
                  std::span<const NodeId> wire_list,
                  std::span<const NodeId> expected, Sink& sink) {
    EMST_ASSERT(installed());
    group_.set_round(now_);
    const std::uint64_t fault_round = faults_.round();
    std::size_t idx = 0;
    bool more = false;
    do {
      const std::size_t n =
          std::min(wire_list.size() - idx, kStepNodesPerChunk);
      more = idx + n < wire_list.size();
      for (std::size_t r = 0; r < rank_count_; ++r) {
        std::vector<std::uint8_t>& body = body_scratch_;
        body.clear();
        body.push_back(proto::kDistOpActorStep);
        body.push_back(more ? 0 : proto::kDistFlagLast);
        proto::dist_put_u64(body, now_);
        body.push_back(kind);
        proto::dist_put_u64(body, param);
        proto::dist_put_u64(body, fault_round);
        proto::dist_put_u32(body, static_cast<std::uint32_t>(n));
        for (std::size_t i = 0; i < n; ++i)
          proto::dist_put_u32(body, wire_list[idx + i]);
        seal_parent_chunk(r, proto::kDistOpActorStep,
                          static_cast<std::uint32_t>(n));
      }
      idx += n;
    } while (more);
    if (kind == proto::kDistStepRestart) defer_fifo_.clear();
    for (std::size_t r = 0; r < rank_count_; ++r)
      receive_actor_groups(r, proto::kDistOpActorStepped);
    for (const NodeId u : expected) {
      ActorLedger& lg = ledgers_[node_rank_[u]];
      EMST_ASSERT_MSG(lg.cursor < lg.groups.size(),
                      "actor step ledger shorter than the expected order");
      const ActorEntry& g = lg.groups[lg.cursor++];
      EMST_ASSERT_MSG(g.to == u, "actor step ledger order diverged");
      sink.on_step_node(u, g.status);
      replay_effects(u, g, sink);
    }
    for (const ActorLedger& lg : ledgers_)
      EMST_ASSERT_MSG(lg.cursor == lg.groups.size(),
                      "actor step ledger longer than the expected order");
  }

  /// Ship every rank's node states home into `actor` (the parent's
  /// never-stepped replica) and return the summed rank-side handler/step
  /// invocation counter — the placement witness (> 0 rank-side while the
  /// parent replica stays at 0).
  template <typename Actor>
  std::uint64_t actor_harvest(Actor& actor) {
    EMST_ASSERT(installed());
    group_.set_round(now_);
    for (std::size_t r = 0; r < rank_count_; ++r) {
      std::vector<std::uint8_t>& body = body_scratch_;
      body.clear();
      body.push_back(proto::kDistOpActorHarvest);
      body.push_back(proto::kDistFlagLast);
      proto::dist_put_u64(body, now_);
      proto::dist_put_u32(body, 0);
      seal_parent_chunk(r, proto::kDistOpActorHarvest, 0);
    }
    std::uint64_t total = 0;
    std::vector<std::uint8_t> image;
    for (std::size_t r = 0; r < rank_count_; ++r) {
      bool last = false;
      while (!last) {
        std::vector<std::uint8_t> p;
        std::uint32_t count = 0;
        last = read_reply_chunk(r, proto::kDistOpActorHarvested, &p, &count);
        const std::size_t body_len = p.size() - proto::kDistFingerprintBytes;
        const std::uint8_t* ptr = p.data() + proto::kDistFrameFixedBytes;
        const std::uint8_t* end = p.data() + body_len;
        for (std::uint32_t i = 0; i < count; ++i) {
          if (end - ptr <
              static_cast<std::ptrdiff_t>(proto::kDistHarvestNodeFixedBytes))
            group_.fatal(r, "truncated harvest group");
          const NodeId u = proto::dist_get_u32(ptr);
          const std::uint32_t nbytes = proto::dist_get_u32(ptr + 4);
          ptr += proto::kDistHarvestNodeFixedBytes;
          if (end - ptr < static_cast<std::ptrdiff_t>(nbytes))
            group_.fatal(r, "truncated harvest state");
          EMST_ASSERT(node_rank_[u] == r);
          image.assign(ptr, ptr + nbytes);
          proto::BitReader rdr(image);
          actor.decode_node(u, rdr);
          ptr += nbytes;
        }
        if (last) {
          if (end - ptr < 8) group_.fatal(r, "truncated harvest counter");
          total += proto::dist_get_u64(ptr);
          ptr += 8;
        }
        if (ptr != end) group_.fatal(r, "trailing bytes in harvest chunk");
      }
    }
    return total;
  }

  /// Size of the parent's deferred-queue model (== the summed rank FIFOs);
  /// the actor drivers' stall detection reads it like the serial deferred
  /// vector's size.
  [[nodiscard]] std::size_t actor_deferred_size() const noexcept {
    return defer_fifo_.size();
  }

  // -- Accessors (Network-compatible) -------------------------------------

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] EnergyMeter& meter() noexcept { return meter_; }
  [[nodiscard]] const EnergyMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] FaultInjector& faults() noexcept { return faults_; }
  [[nodiscard]] const FaultStats& fault_stats() const noexcept {
    return faults_.stats();
  }
  /// Attach a runtime invariant oracle, checked at every round barrier
  /// (serial section). Null (the default) costs one pointer test per round.
  void attach_oracle(InvariantOracle* oracle) noexcept { oracle_ = oracle; }
  [[nodiscard]] InvariantOracle* oracle() const noexcept { return oracle_; }
  [[nodiscard]] std::size_t rank_count() const noexcept { return rank_count_; }
  [[nodiscard]] std::size_t rank_of(NodeId u) const { return node_rank_[u]; }
  /// The engine's message codec (wire.hpp) — same contract as
  /// Network::wire_format(). Configure before sending; staged sends capture
  /// their size at issue time and the payload is encoded under the context
  /// active at the barrier.
  [[nodiscard]] WireFormat<Msg>& wire_format() noexcept { return wire_; }
  [[nodiscard]] const WireFormat<Msg>& wire_format() const noexcept {
    return wire_;
  }

  // -- Distributed-specific introspection ----------------------------------

  /// Transport totals (frame headers + records + fingerprints), both
  /// directions — the bench's bytes-on-wire axis.
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return group_.bytes_sent();
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return group_.bytes_received();
  }
  /// Sum of encoded payload bytes routed so far. For measured wire formats
  /// this equals the sum of ceil(bits/8) over every charged transmission
  /// (asserted per message at encode time).
  [[nodiscard]] std::uint64_t payload_bytes_sent() const noexcept {
    return payload_bytes_;
  }
  /// Rank process id, for fault-injection tests (kill a rank, observe the
  /// reported teardown).
  [[nodiscard]] int rank_pid(std::size_t rank) const {
    return group_.pid(rank);
  }

  // -- Test hooks (negative tests for the fingerprint contract) ------------

  /// Corrupt one byte of the next ACTOR_ROUND frame sent to `rank`, AFTER
  /// the parent has mixed its fingerprint — models wire corruption. The rank
  /// detects the mismatch and reports a desync instead of deadlocking.
  void test_corrupt_next_frame(std::size_t rank) { corrupt_rank_ = rank; }
  /// Advance the parent's chain for `rank` by one phantom mix AFTER the
  /// next ACTOR_ROUND frame is on the wire — models a collective the parent
  /// recorded but never exchanged (PARCOACH's mismatched-call bug class).
  /// The outgoing trailer is still consistent, so the rank accepts the
  /// frame; the divergence is caught by the PARENT when the rank's reply
  /// fingerprint fails to match.
  void test_skip_collective_mix(std::size_t rank) { skip_rank_ = rank; }

 private:
  static constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);
  /// Per-chunk record budget: chunk body stays within the serve frame cap.
  static constexpr std::size_t kChunkRecordBudget =
      proto::kDistMaxChunkBodyBytes - proto::kDistFrameFixedBytes;

  /// The rank processes exist from install_actor on.
  [[nodiscard]] bool installed() const noexcept { return group_.size() > 0; }

  struct Target {
    NodeId to;
    double distance;
  };

  /// Meter context captured with each staged send. Staging order is issue
  /// order, so replaying the staged sends at the barrier charges the meter
  /// exactly as `Network` would have at call time.
  struct SendContext {
    MsgKind kind = MsgKind::kData;
    PhaseTag phase = PhaseTag::kRun;
    std::uint8_t flags = 0;
    std::uint32_t fragment = kNoEventNode;
    std::uint32_t bits = 0;
  };

  /// One staged send (unicast or broadcast) awaiting the barrier replay.
  struct StagedOp {
    SendContext ctx;
    NodeId from = 0;
    double reach = 0.0;  ///< distance (unicast) or power radius (broadcast)
    std::uint32_t first = 0;  ///< targets range in targets_
    std::uint32_t count = 0;
    bool is_broadcast = false;
    bool suppressed = false;  ///< sender down at issue time (clock-stable)
    Msg msg{};
    /// Effect replay: the payload already crossed the wire once (encoded
    /// rank-side by RankActorEnv), so the replayed send re-stages the exact
    /// bytes instead of re-encoding the in-memory object it never had.
    std::vector<std::uint8_t> raw;
    bool raw_payload = false;
  };

  /// Outgoing mailbox for one rank: concatenated ACTOR_ROUND records, packed
  /// into one chunk-sized run (records never straddle frames). A run that
  /// fills goes on the wire IMMEDIATELY (route()), overlapping the barrier's
  /// send half with the parent's remaining serial work; only the final,
  /// partial run waits for the barrier.
  struct Mailbox {
    std::vector<std::uint8_t> cur;
    std::uint32_t cur_count = 0;
  };

  /// Node capacity of one ACTOR_STEP chunk (wire lists chunk like records).
  static constexpr std::size_t kStepNodesPerChunk =
      (proto::kDistMaxChunkBodyBytes - proto::kDistStepFixedBytes) / 4;

  /// One parsed actor-ledger entry (retry, delivery, or step group — the
  /// field subset in use depends on the tag). Effect bytes are pointers
  /// into the retained chunk payloads, not copies.
  struct ActorEntry {
    NodeId from = 0;
    NodeId to = 0;  ///< receiver / retried node / stepped node
    double distance = 0.0;
    std::uint32_t bits = 0;
    std::uint8_t status = 0;  ///< delivery status / retry redeferred / flag
    std::uint16_t neffects = 0;
    const std::uint8_t* eff = nullptr;
    const std::uint8_t* eff_end = nullptr;
  };

  /// One rank's parsed reply (drained ledger or step groups), plus the
  /// owning chunk buffers the entries point into.
  struct ActorLedger {
    std::vector<std::vector<std::uint8_t>> chunks;
    std::vector<ActorEntry> retries;     ///< rank-local FIFO order
    std::vector<ActorEntry> deliveries;  ///< ascending-receiver order
    std::vector<ActorEntry> groups;      ///< step groups, rank-local order
    std::size_t retry_cursor = 0;
    std::size_t cursor = 0;
    void reset() {
      chunks.clear();
      retries.clear();
      deliveries.clear();
      groups.clear();
      retry_cursor = 0;
      cursor = 0;
    }
  };

  // -- Construction --------------------------------------------------------

  void build_partition() {
    // g×g tiles round-robin onto ranks, a pure function of (points, rank
    // count).
    std::size_t g = 1;
    while (g * g < rank_count_) ++g;
    const auto& points = topo_.points();
    node_rank_.resize(points.size());
    const double scale = static_cast<double>(g);
    auto cell = [g, scale](double coord) {
      const double scaled = coord * scale;
      if (!(scaled > 0.0)) return std::size_t{0};
      return std::min(static_cast<std::size_t>(scaled), g - 1);
    };
    for (std::size_t u = 0; u < points.size(); ++u) {
      const std::size_t tile = cell(points[u].x) + g * cell(points[u].y);
      node_rank_[u] = static_cast<std::uint32_t>(tile % rank_count_);
    }
  }

  // -- Staging (issue side) ------------------------------------------------

  [[nodiscard]] SendContext meter_context() const noexcept {
    return {meter_.kind(), meter_.phase(), meter_.flags(), meter_.fragment(),
            0};
  }

  void stage_unicast(const SendContext& ctx, NodeId u, NodeId v, double d,
                     Msg m) {
    StagedOp op;
    op.ctx = ctx;
    op.ctx.bits = wire_.bits(m);
    op.from = u;
    op.reach = d;
    op.first = static_cast<std::uint32_t>(targets_.size());
    op.count = 1;
    op.suppressed = faults_.enabled() && faults_.crashed(u);
    op.msg = std::move(m);
    if (!op.suppressed) ++staged_live_;
    targets_.push_back({v, d});
    ops_.push_back(std::move(op));
  }

  void stage_broadcast(const SendContext& ctx, NodeId u, double radius,
                       Msg m) {
    EMST_ASSERT(u < topo_.node_count());
    EMST_ASSERT(radius >= 0.0);
    if (!unbounded_broadcast_) {
      EMST_ASSERT_MSG(radius <= topo_.max_radius() * (1.0 + 1e-12),
                      "broadcast beyond the maximum transmission radius");
    }
    StagedOp op;
    op.ctx = ctx;
    op.ctx.bits = wire_.bits(m);
    op.from = u;
    op.reach = radius;
    op.first = static_cast<std::uint32_t>(targets_.size());
    op.is_broadcast = true;
    op.suppressed = faults_.enabled() && faults_.crashed(u);
    op.msg = std::move(m);
    if (!op.suppressed) {
      // Same receiver enumeration as Network::broadcast_impl, including the
      // per-receiver distance recomputation (bitwise-equal charges depend
      // on identical inputs, not just identical sets).
      if (radius <= topo_.max_radius()) {
        for (const graph::Neighbor& nb : topo_.neighbors(u)) {
          if (nb.w <= radius)
            targets_.push_back({nb.id, topo_.distance(u, nb.id)});
          else
            break;
        }
      } else {
        for (const NodeId v : topo_.nodes_within(u, radius))
          targets_.push_back({v, topo_.distance(u, v)});
      }
      op.count = static_cast<std::uint32_t>(targets_.size()) - op.first;
    }
    staged_live_ += op.count;
    ops_.push_back(std::move(op));
  }

  // -- Actor-replay staging (raw payload bytes; ambient meter context) ------

  /// Stage a replayed unicast effect. The context is captured from the
  /// AMBIENT meter — replay_effects set kind/fragment from the effect
  /// record just before, reproducing the serial env's set-then-send
  /// sequence — and the charge distance is recomputed from the parent's
  /// topology exactly like the serial engine's unicast.
  void stage_raw_unicast(NodeId u, NodeId v, std::uint32_t bits,
                         const std::uint8_t* payload, std::uint32_t plen) {
    EMST_ASSERT(u < topo_.node_count() && v < topo_.node_count() && u != v);
    const double d = topo_.distance(u, v);
    EMST_ASSERT_MSG(unbounded_broadcast_ ||
                        d <= topo_.max_radius() * (1.0 + 1e-12),
                    "unicast beyond the maximum transmission radius");
    if constexpr (WireFormat<Msg>::kMeasured) {
      EMST_ASSERT(plen == (static_cast<std::size_t>(bits) + 7) / 8);
    }
    StagedOp op;
    op.ctx = meter_context();
    op.ctx.bits = bits;
    op.from = u;
    op.reach = d;
    op.first = static_cast<std::uint32_t>(targets_.size());
    op.count = 1;
    op.suppressed = faults_.enabled() && faults_.crashed(u);
    op.raw_payload = true;
    op.raw.assign(payload, payload + plen);
    if (!op.suppressed) ++staged_live_;
    targets_.push_back({v, d});
    ops_.push_back(std::move(op));
  }

  /// Stage a replayed broadcast effect — same receiver enumeration and
  /// distance recomputation as stage_broadcast.
  void stage_raw_broadcast(NodeId u, double radius, std::uint32_t bits,
                           const std::uint8_t* payload, std::uint32_t plen) {
    EMST_ASSERT(u < topo_.node_count());
    EMST_ASSERT(radius >= 0.0);
    if (!unbounded_broadcast_) {
      EMST_ASSERT_MSG(radius <= topo_.max_radius() * (1.0 + 1e-12),
                      "broadcast beyond the maximum transmission radius");
    }
    if constexpr (WireFormat<Msg>::kMeasured) {
      EMST_ASSERT(plen == (static_cast<std::size_t>(bits) + 7) / 8);
    }
    StagedOp op;
    op.ctx = meter_context();
    op.ctx.bits = bits;
    op.from = u;
    op.reach = radius;
    op.first = static_cast<std::uint32_t>(targets_.size());
    op.is_broadcast = true;
    op.suppressed = faults_.enabled() && faults_.crashed(u);
    op.raw_payload = true;
    op.raw.assign(payload, payload + plen);
    if (!op.suppressed) {
      if (radius <= topo_.max_radius()) {
        for (const graph::Neighbor& nb : topo_.neighbors(u)) {
          if (nb.w <= radius)
            targets_.push_back({nb.id, topo_.distance(u, nb.id)});
          else
            break;
        }
      } else {
        for (const NodeId v : topo_.nodes_within(u, radius))
          targets_.push_back({v, topo_.distance(u, v)});
      }
      op.count = static_cast<std::uint32_t>(targets_.size()) - op.first;
    }
    staged_live_ += op.count;
    ops_.push_back(std::move(op));
  }

  // -- Barrier: serial charge replay + routing -----------------------------

  /// Replay the staging through the meter in issue order (the ONLY place
  /// charges, suppressions and their telemetry events happen — float
  /// accumulation order and event order match Network exactly), then
  /// encode each physical message once and route the bytes to the
  /// receiver's rank mailbox.
  void flush_staged() {
    if (ops_.empty()) return;
    const MsgKind kind0 = meter_.kind();
    const PhaseTag phase0 = meter_.phase();
    const std::uint8_t flags0 = meter_.flags();
    const std::uint32_t fragment0 = meter_.fragment();
    for (StagedOp& op : ops_) {
      meter_.set_kind(op.ctx.kind);
      meter_.set_phase(op.ctx.phase);
      meter_.set_flags(op.ctx.flags);
      meter_.set_fragment(op.ctx.fragment);
      meter_.set_bits(op.ctx.bits);
      if (op.suppressed) {
        ++faults_.stats().suppressed;
        meter_.note_event(EventType::kSuppress, op.from,
                          op.is_broadcast ? kNoEventNode
                                          : targets_[op.first].to,
                          op.reach);
        continue;
      }
      const std::vector<std::uint8_t>& payload =
          op.raw_payload ? op.raw : encode_payload(op.msg, op.ctx.bits);
      if (op.is_broadcast) {
        meter_.charge_broadcast(op.from, op.reach, op.count);
        for (std::uint32_t i = op.first; i < op.first + op.count; ++i)
          route(op.from, targets_[i].to, targets_[i].distance, op.ctx.bits,
                payload);
      } else {
        const Target& t = targets_[op.first];
        meter_.charge_unicast(op.from, t.to, t.distance);
        route(op.from, t.to, t.distance, op.ctx.bits, payload);
      }
    }
    meter_.set_kind(kind0);
    meter_.set_phase(phase0);
    meter_.set_flags(flags0);
    meter_.set_fragment(fragment0);
    // Network clears ambient bits after every send; end the replay in the
    // same state so later note_events stamp identically.
    meter_.clear_bits();
    ops_.clear();
    targets_.clear();
    staged_live_ = 0;
  }

  /// Encode through the DistMsgAdapter — the ONLY representation that
  /// crosses to the ranks; the original object never travels.
  /// For measured formats this is where bits-on-air == bytes-on-wire is
  /// enforced: the codec must produce exactly the accounted bit count.
  [[nodiscard]] const std::vector<std::uint8_t>& encode_payload(
      const Msg& m, std::uint32_t bits) {
    proto::BitWriter w;
    proto::DistMsgAdapter<Msg>::encode(m, w, wire_);
    if constexpr (WireFormat<Msg>::kMeasured) {
      EMST_ASSERT_MSG(w.bit_count() == bits,
                      "wire codec and energy accounting disagree on size");
      EMST_ASSERT(w.bytes().size() ==
                  (static_cast<std::size_t>(bits) + 7) / 8);
    }
    payload_scratch_ = w.bytes();
    return payload_scratch_;
  }

  void route(NodeId u, NodeId v, double d, std::uint32_t bits,
             const std::vector<std::uint8_t>& payload) {
    // Sequential delay draws in global send order — the exact stream
    // Network::enqueue consumes. The FIFO clamp is applied rank-side
    // (per-link state lives with the receiver's rank).
    std::uint64_t due = now_ + 1;
    if (delays_.max_extra_delay > 0)
      due += delay_rng_.uniform_int(delays_.max_extra_delay + 1);
    const std::size_t rank = node_rank_[v];
    Mailbox& mb = mailboxes_[rank];
    const std::size_t rec = proto::kDistRoundRecordBytes + payload.size();
    EMST_ASSERT_MSG(rec <= kChunkRecordBudget, "message exceeds frame cap");
    if (mb.cur.size() + rec > kChunkRecordBudget) {
      // Overlap the barrier halves: the full chunk goes on the wire NOW (an
      // async put into the rank's next-round buffer — ingest is
      // order-insensitive) instead of queueing for a send-all at the
      // barrier. flush_staged runs entirely before begin_round's clock
      // tick, so every chunk of this barrier stamps the same round, now_+1.
      emit_chunk(rank, /*last=*/false, now_ + 1);
    }
    proto::dist_put_u64(mb.cur, due);
    proto::dist_put_u32(mb.cur, u);
    proto::dist_put_u32(mb.cur, v);
    proto::dist_put_u64(mb.cur, std::bit_cast<std::uint64_t>(d));
    proto::dist_put_u32(mb.cur, bits);
    proto::dist_put_u32(mb.cur, static_cast<std::uint32_t>(payload.size()));
    mb.cur.insert(mb.cur.end(), payload.begin(), payload.end());
    ++mb.cur_count;
    ++inflight_;
    payload_bytes_ += payload.size();
  }

  void begin_round() {
    meter_.tick_round();
    ++now_;
    if (faults_.enabled()) {
      // Serial section: the chaos controller consult (and its injections)
      // happen before the exchange. `inflight_` counts routed,
      // not-yet-delivered messages — Network's pre-drain count.
      faults_.set_in_flight(inflight_);
      faults_.advance_to(now_);
      for (const CrashWindow& w : faults_.take_new_injections()) {
        meter_.note_event(EventType::kCrashInject, w.node, kNoEventNode, 0.0,
                          w.until);
        // The rank-side crash mirrors need this window before they classify
        // the round's due bucket; it ships in the final ACTOR_ROUND chunk of
        // this same barrier.
        pending_window_ship_.push_back(w);
      }
    }
    if (oracle_ != nullptr) oracle_->on_round(now_, meter_);
  }

  /// Seal `rank`'s mailbox as one ACTOR_ROUND chunk, put it on the wire and
  /// empty the mailbox. `extra` is appended after the records (the
  /// chaos-window section of the final chunk).
  void emit_chunk(std::size_t rank, bool last, std::uint64_t round,
                  const std::vector<std::uint8_t>* extra = nullptr) {
    Mailbox& mb = mailboxes_[rank];
    std::vector<std::uint8_t>& body = body_scratch_;
    body.clear();
    body.push_back(proto::kDistOpActorRound);
    body.push_back(last ? proto::kDistFlagLast : 0);
    proto::dist_put_u64(body, round);
    proto::dist_put_u32(body, mb.cur_count);
    body.insert(body.end(), mb.cur.begin(), mb.cur.end());
    if (extra != nullptr) body.insert(body.end(), extra->begin(), extra->end());
    const std::uint64_t h = proto::dist_hash(body.data(), body.size());
    chains_[rank] = proto::dist_mix(chains_[rank], h);
    group_.log_collective(rank, proto::kDistOpActorRound, round, mb.cur_count,
                          h);
    mb.cur.clear();
    mb.cur_count = 0;
    if (corrupt_rank_ == rank) {
      body[2] ^= 0x01;  // hook: corrupt AFTER hashing — wire damage
      corrupt_rank_ = kNoRank;
    }
    proto::dist_put_u64(body, chains_[rank]);
    group_.send_frame(rank, body);
    if (skip_rank_ == rank) {
      // Hook: a phantom collective only the parent's bookkeeping saw.
      chains_[rank] = proto::dist_mix(chains_[rank], h);
      skip_rank_ = kNoRank;
    }
  }

  /// Read, verify (protocol + fingerprint) and log one rank reply chunk of
  /// the given opcode; hands back the raw frame payload. Shared by every
  /// rank-to-parent collective.
  bool read_reply_chunk(std::size_t rank, std::uint8_t opcode,
                        std::vector<std::uint8_t>* payload,
                        std::uint32_t* count) {
    serve::Frame frame = group_.read_frame(rank);
    std::vector<std::uint8_t>& p = frame.payload;
    if (frame.version != proto::kDistProtocolVersion ||
        p.size() < proto::kDistFrameFixedBytes) {
      group_.fatal(rank, "malformed reply frame");
    }
    if (p[0] == proto::kDistOpDesync) {
      // The rank detected a fingerprint mismatch on OUR frame and
      // reported instead of hanging. Surface its view verbatim.
      const std::uint64_t round = proto::dist_get_u64(p.data() + 2);
      const std::uint64_t expected = proto::dist_get_u64(p.data() + 10);
      const std::uint64_t actual = proto::dist_get_u64(p.data() + 18);
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "collective fingerprint mismatch reported by rank at "
                    "round %llu: expected %016llx actual %016llx",
                    static_cast<unsigned long long>(round),
                    static_cast<unsigned long long>(expected),
                    static_cast<unsigned long long>(actual));
      // The rank exits right after sending DESYNC: wait for its status.
      group_.fatal(rank, msg, /*exiting=*/true);
    }
    if (p[0] != opcode ||
        p.size() <
            proto::kDistFrameFixedBytes + proto::kDistFingerprintBytes) {
      group_.fatal(rank, "unexpected reply opcode");
    }
    const bool last = (p[1] & proto::kDistFlagLast) != 0;
    const std::uint64_t round = proto::dist_get_u64(p.data() + 2);
    if (round != now_) group_.fatal(rank, "barrier round skew in reply");
    const std::size_t body_len = p.size() - proto::kDistFingerprintBytes;
    const std::uint64_t h = proto::dist_hash(p.data(), body_len);
    chains_[rank] = proto::dist_mix(chains_[rank], h);
    *count = proto::dist_get_u32(p.data() + 10);
    group_.log_collective(rank, opcode, round, *count, h);
    const std::uint64_t fp = proto::dist_get_u64(p.data() + body_len);
    if (fp != chains_[rank]) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "collective fingerprint mismatch in rank reply: "
                    "expected %016llx actual %016llx",
                    static_cast<unsigned long long>(chains_[rank]),
                    static_cast<unsigned long long>(fp));
      group_.fatal(rank, msg);
    }
    *payload = std::move(p);
    return last;
  }

  // -- Exchange, parse, replay ---------------------------------------------

  /// Seal the chunk staged in body_scratch_ into the rank's chain and send
  /// it (parent → rank collectives that are not ROUND-record chunks).
  void seal_parent_chunk(std::size_t rank, std::uint8_t opcode,
                         std::uint32_t count) {
    std::vector<std::uint8_t>& body = body_scratch_;
    const std::uint64_t h = proto::dist_hash(body.data(), body.size());
    chains_[rank] = proto::dist_mix(chains_[rank], h);
    group_.log_collective(rank, opcode, now_, count, h);
    proto::dist_put_u64(body, chains_[rank]);
    group_.send_frame(rank, body);
  }

  /// Send the final ACTOR_ROUND chunk (plus the chaos-window section) to
  /// one rank; full chunks already went out eagerly from route().
  void send_actor_round(std::size_t rank) {
    if (mailboxes_[rank].cur.size() + windows_scratch_.size() >
        kChunkRecordBudget) {
      emit_chunk(rank, /*last=*/false, now_);
    }
    emit_chunk(rank, /*last=*/true, now_, &windows_scratch_);
  }

  /// Parse the effect run of one ledger entry (bounds-asserted) and return
  /// the position past it.
  [[nodiscard]] const std::uint8_t* skip_effects(const std::uint8_t* ptr,
                                                const std::uint8_t* end,
                                                std::uint16_t neffects) {
    EffectView ev;
    for (std::uint16_t k = 0; k < neffects; ++k)
      ptr = decode_effect(ptr, end, ev);
    return ptr;
  }

  /// Receive one rank's ACTOR_DRAINED ledger: retry entries (rank FIFO
  /// order) and delivery entries (ascending-receiver order).
  void receive_actor_ledger(std::size_t rank) {
    ActorLedger& lg = ledgers_[rank];
    lg.reset();
    bool last = false;
    while (!last) {
      std::vector<std::uint8_t> p;
      std::uint32_t count = 0;
      last = read_reply_chunk(rank, proto::kDistOpActorDrained, &p, &count);
      lg.chunks.push_back(std::move(p));
      const std::vector<std::uint8_t>& buf = lg.chunks.back();
      const std::size_t body_len = buf.size() - proto::kDistFingerprintBytes;
      const std::uint8_t* ptr = buf.data() + proto::kDistFrameFixedBytes;
      const std::uint8_t* end = buf.data() + body_len;
      for (std::uint32_t i = 0; i < count; ++i) {
        if (ptr >= end) group_.fatal(rank, "truncated actor ledger entry");
        const std::uint8_t tag = *ptr++;
        ActorEntry e;
        bool retry = false;
        if (tag == proto::kDistEntryRetry) {
          if (end - ptr <
              static_cast<std::ptrdiff_t>(proto::kDistEntryRetryFixedBytes - 1))
            group_.fatal(rank, "truncated actor ledger entry");
          e.to = proto::dist_get_u32(ptr);
          e.status = ptr[4];
          e.neffects = proto::dist_get_u16(ptr + 5);
          ptr += proto::kDistEntryRetryFixedBytes - 1;
          retry = true;
        } else if (tag == proto::kDistEntryDelivery) {
          if (end - ptr < static_cast<std::ptrdiff_t>(
                              proto::kDistEntryDeliveryFixedBytes - 1))
            group_.fatal(rank, "truncated actor ledger entry");
          e.from = proto::dist_get_u32(ptr);
          e.to = proto::dist_get_u32(ptr + 4);
          e.distance = std::bit_cast<double>(proto::dist_get_u64(ptr + 8));
          e.bits = proto::dist_get_u32(ptr + 16);
          e.status = ptr[20];
          e.neffects = proto::dist_get_u16(ptr + 21);
          ptr += proto::kDistEntryDeliveryFixedBytes - 1;
        } else {
          group_.fatal(rank, "unknown actor ledger entry tag");
        }
        e.eff = ptr;
        ptr = skip_effects(ptr, end, e.neffects);
        e.eff_end = ptr;
        (retry ? lg.retries : lg.deliveries).push_back(e);
      }
      if (ptr != end)
        group_.fatal(rank, "trailing bytes in actor ledger chunk");
    }
  }

  /// Receive one rank's ACTOR_STEPPED groups (rank-local invocation order).
  void receive_actor_groups(std::size_t rank, std::uint8_t opcode) {
    ActorLedger& lg = ledgers_[rank];
    lg.reset();
    bool last = false;
    while (!last) {
      std::vector<std::uint8_t> p;
      std::uint32_t count = 0;
      last = read_reply_chunk(rank, opcode, &p, &count);
      lg.chunks.push_back(std::move(p));
      const std::vector<std::uint8_t>& buf = lg.chunks.back();
      const std::size_t body_len = buf.size() - proto::kDistFingerprintBytes;
      const std::uint8_t* ptr = buf.data() + proto::kDistFrameFixedBytes;
      const std::uint8_t* end = buf.data() + body_len;
      for (std::uint32_t i = 0; i < count; ++i) {
        if (end - ptr <
            static_cast<std::ptrdiff_t>(proto::kDistStepGroupFixedBytes))
          group_.fatal(rank, "truncated actor step group");
        ActorEntry g;
        g.to = proto::dist_get_u32(ptr);
        g.status = ptr[4];
        g.neffects = proto::dist_get_u16(ptr + 5);
        ptr += proto::kDistStepGroupFixedBytes;
        g.eff = ptr;
        ptr = skip_effects(ptr, end, g.neffects);
        g.eff_end = ptr;
        lg.groups.push_back(g);
      }
      if (ptr != end)
        group_.fatal(rank, "trailing bytes in actor step chunk");
    }
  }

  /// Replay one entry's effects in recorded order. Send effects reproduce
  /// the serial env's sequence exactly — sink callback, then kind/fragment on
  /// the ambient meter, then the stage (which captures the ambient
  /// context). Ambient kind/fragment are deliberately LEFT at the last
  /// effect's values: that is the state the serial run's meter would be in
  /// after the same handler, and later events stamp against it.
  template <typename Sink>
  void replay_effects(NodeId from, const ActorEntry& e, Sink& sink) {
    const std::uint8_t* p = e.eff;
    EffectView ev;
    for (std::uint16_t i = 0; i < e.neffects; ++i) {
      p = decode_effect(p, e.eff_end, ev);
      switch (ev.tag) {
        case proto::kDistEffectUnicast: {
          sink.on_send(ev.dtag, std::bit_cast<double>(ev.reach_bits));
          meter_.set_kind(ev.kind);
          meter_.set_fragment(ev.fragment);
          stage_raw_unicast(from, ev.to, ev.bits, ev.payload, ev.plen);
          break;
        }
        case proto::kDistEffectBroadcast: {
          const double radius = std::bit_cast<double>(ev.reach_bits);
          sink.on_send(ev.dtag, radius);
          meter_.set_kind(ev.kind);
          meter_.set_fragment(ev.fragment);
          stage_raw_broadcast(from, radius, ev.bits, ev.payload, ev.plen);
          break;
        }
        default:
          sink.on_note(from, ev.a, ev.b);
          break;
      }
    }
    EMST_ASSERT(p == e.eff_end);
  }

  /// The serial half of the actor barrier (see actor_collect_round).
  template <typename Sink>
  ActorRoundInfo replay_actor_round(Sink& sink) {
    ActorRoundInfo info;
    info.retried = defer_fifo_.size();
    std::size_t total = 0;
    for (const ActorLedger& lg : ledgers_) total += lg.deliveries.size();
    inflight_ -= total;
    // Pass A — classification in global (receiver, sequence) order: crash
    // fates and their telemetry events fire HERE, before any of this
    // round's effects replay, exactly like the serial drain (handler
    // effects carry no events, so the round's event stream is the drop
    // sequence at its merge positions).
    survivors_scratch_.clear();
    for (;;) {
      ActorLedger* next = nullptr;
      for (ActorLedger& lg : ledgers_) {
        if (lg.cursor >= lg.deliveries.size()) continue;
        if (next == nullptr ||
            lg.deliveries[lg.cursor].to < next->deliveries[next->cursor].to) {
          next = &lg;
        }
      }
      if (next == nullptr) break;
      const ActorEntry& e = next->deliveries[next->cursor++];
      const bool drop = faults_.enabled() && faults_.crashed(e.to);
      EMST_ASSERT_MSG(drop == (e.status == proto::kDistDeliveryCrashDropped),
                      "rank crash mirror diverged from the fault clock");
      if (drop) {
        EMST_ASSERT(e.neffects == 0);
        ++faults_.stats().dropped_crashed;
        meter_.set_bits(e.bits);
        meter_.note_event(EventType::kCrashDrop, e.from, e.to, e.distance);
        meter_.clear_bits();
        continue;
      }
      survivors_scratch_.push_back(&e);
    }
    info.batch = survivors_scratch_.size();
    // Pass B — retries replay in the parent's deferred-model order (= the
    // serial driver's retry sweep), pulling each rank's stream in step.
    fifo_scratch_.clear();
    for (const NodeId u : defer_fifo_) {
      ActorLedger& lg = ledgers_[node_rank_[u]];
      EMST_ASSERT_MSG(lg.retry_cursor < lg.retries.size(),
                      "actor retry ledger shorter than the deferred model");
      const ActorEntry& e = lg.retries[lg.retry_cursor++];
      EMST_ASSERT_MSG(e.to == u, "actor retry ledger order diverged");
      replay_effects(u, e, sink);
      if (e.status != 0) fifo_scratch_.push_back(u);
    }
    for (const ActorLedger& lg : ledgers_)
      EMST_ASSERT_MSG(lg.retry_cursor == lg.retries.size(),
                      "actor retry ledger longer than the deferred model");
    // Pass C — surviving deliveries replay in merge order; deferred ones
    // extend the deferred model exactly like the serial driver's queue.
    for (const ActorEntry* e : survivors_scratch_) {
      replay_effects(e->to, *e, sink);
      if (e->status == proto::kDistDeliveryDeferred) {
        fifo_scratch_.push_back(e->to);
      } else {
        EMST_ASSERT(e->status == proto::kDistDeliveryDispatched);
      }
    }
    std::swap(defer_fifo_, fifo_scratch_);
    info.deferred_after = defer_fifo_.size();
    return info;
  }

  const Topology& topo_;
  EnergyMeter meter_;
  WireFormat<Msg> wire_{};
  bool unbounded_broadcast_;
  DelayModel delays_;
  support::Rng delay_rng_;
  FaultInjector faults_;
  InvariantOracle* oracle_ = nullptr;
  std::size_t rank_count_;
  std::vector<std::uint32_t> node_rank_;  ///< node → rank (tile % ranks)
  dist::ProcessGroup group_;
  std::vector<Mailbox> mailboxes_;
  std::vector<std::uint64_t> chains_;  ///< per-rank fingerprint chains
  std::vector<ActorLedger> ledgers_;   ///< per-rank parsed replies
  // Frontend staging (issue order = replay order).
  std::vector<StagedOp> ops_;
  std::vector<Target> targets_;
  std::vector<std::uint8_t> payload_scratch_;
  std::vector<std::uint8_t> body_scratch_;
  std::size_t staged_live_ = 0;  ///< staged deliveries that will route
  std::size_t inflight_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::size_t corrupt_rank_ = kNoRank;
  std::size_t skip_rank_ = kNoRank;
  // Rank-resident execution.
  ActorTestHooks actor_hooks_{};
  std::vector<NodeId> defer_fifo_;  ///< deferred-queue model (receiver ids)
  std::vector<NodeId> fifo_scratch_;
  std::vector<const ActorEntry*> survivors_scratch_;
  std::vector<CrashWindow> pending_window_ship_;
  std::vector<std::uint8_t> windows_scratch_;
};

}  // namespace emst::sim
