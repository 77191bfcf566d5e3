// Sharded parallel simulation engine (docs/PARALLEL.md).
//
// `ShardedNetwork<Msg>` is a drop-in replacement for `Network<Msg>` that
// spreads the per-round message work across worker threads while producing
// BITWISE-identical results — same delivery sequences, same meter totals
// (float addition order preserved), same telemetry event stream, same fault
// fates — regardless of thread count. The determinism argument:
//
//  1. Partition. The unit square is cut into a grid of tiles; tiles map
//     round-robin onto S shards (S = threads), and every node belongs to the
//     shard of its tile. A message lives in the shard of its RECEIVER, so a
//     directed link (u,v) is handled by exactly one shard — per-link state
//     (FIFO clamp, Gilbert–Elliott burst chain) needs no synchronization.
//  2. Per-shard calendar queues. Each shard runs its own ring of per-round
//     buckets (the engine of network.hpp). Messages are appended in global
//     send-sequence order, so within a shard any stable by-receiver ordering
//     reproduces the (receiver, sequence) delivery contract; across shards
//     receivers never collide, so a receiver-keyed S-way merge reconstructs
//     the exact global order.
//  3. Order-sensitive state stays serial. Energy totals are float sums, so
//     charges must accumulate in exactly global send order: sends are staged
//     (frontend calls) or logged per shard (process_round handlers), merged
//     deterministically, and replayed through the ONE meter at the round
//     barrier — telemetry events fall out in the same order `Network` emits
//     them. Everything else — delay clamping, fate evaluation, bucket
//     insertion, drain ordering, crash classification — runs shard-parallel.
//  4. Counter-based randomness. Channel fates derive from (fault seed,
//     global message number) via `FaultInjector::drop_at`, not from a shared
//     sequential generator, so shard workers evaluate the k-th fate without
//     having observed draws k-1 … 0. Extra delays are drawn serially at the
//     barrier from the same sequential stream `Network` uses.
//
// Cross-shard exchange is mailbox-shaped, PGAS style: the producing side
// (frontend staging, or a shard's send log in process_round) and the
// consuming side (the receiver shard's inbox) form a double-buffered pair
// whose swap point is the round barrier — workers never write another
// shard's state, and the serial barrier code never runs concurrently with
// the workers (the pool's fork/join provides the happens-before edges).
//
// Two driving modes:
//  - collect_round(): the `Network` facade. Sends issued by the caller
//    between rounds are staged and replayed at the next barrier; deliveries
//    come back as one merged, globally-ordered batch.
//  - process_round(handler): the scaling mode. Each shard's worker consumes
//    its own deliveries in shard-local order and stages sends from the
//    handler; the barrier merges the logs by (triggering delivery rank,
//    issue index), which is exactly the send order a sequential driver
//    processing the merged batch would have produced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/topology.hpp"
#include "emst/sim/wire.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/flat_map.hpp"
#include "emst/support/parallel.hpp"
#include "emst/support/rng.hpp"

namespace emst::sim {

/// Topo is either sim::Topology or sim::ImplicitTopology (see topology.hpp).
/// The implicit backend's neighbour spans live in thread-local scratch,
/// which is exactly why stage_broadcast can run on worker threads in Mode B:
/// each worker enumerates into its own buffer.
template <typename Msg, typename Topo = Topology>
class ShardedNetwork {
 public:
  ShardedNetwork(const Topo& topo, geometry::PathLoss model = {},
                 bool unbounded_broadcast = false, DelayModel delays = {},
                 FaultModel faults = {}, Telemetry* telemetry = nullptr,
                 std::size_t threads = 1)
      : topo_(topo),
        meter_(model),
        unbounded_broadcast_(unbounded_broadcast),
        delays_(delays),
        delay_rng_(delays.seed),
        faults_(faults),
        shard_count_(threads == 0 ? 1 : threads),
        shards_(shard_count_),
        pool_(shard_count_ > 1 ? shard_count_ : 0) {
    meter_.attach_telemetry(telemetry);
    for (Shard& shard : shards_)
      shard.buckets.resize(delays.max_extra_delay + 1);
    build_partition();
    if (faults_.enabled())
      faults_.set_chaos_env(topo_.node_count(), topo_.points());
  }

  // -- Network facade ------------------------------------------------------

  /// Send m from u to v; delivered next round. Charges d(u,v)^α (at the
  /// next round barrier, in issue order — the meter context active NOW is
  /// captured with the send, exactly as if the charge had happened inline).
  void unicast(NodeId u, NodeId v, Msg m) {
    EMST_ASSERT(u < topo_.node_count() && v < topo_.node_count() && u != v);
    const double d = topo_.distance(u, v);
    EMST_ASSERT_MSG(unbounded_broadcast_ ||
                        d <= topo_.max_radius() * (1.0 + 1e-12),
                    "unicast beyond the maximum transmission radius");
    stage_unicast(ops_, targets_, meter_context(), u, v, d, std::move(m));
  }

  /// Locally broadcast m from u at power radius `radius`. Charges radius^α.
  void broadcast(NodeId u, double radius, const Msg& m) {
    stage_broadcast(ops_, targets_, meter_context(), u, radius, Msg(m));
  }
  void broadcast(NodeId u, double radius, Msg&& m) {
    stage_broadcast(ops_, targets_, meter_context(), u, radius, std::move(m));
  }

  [[nodiscard]] bool pending() const noexcept {
    return staged_live_ > 0 || inflight_ > 0;
  }

  /// Advance to the next round and return the messages due for delivery,
  /// sorted by (receiver, global send sequence) — byte-identical to
  /// `Network::collect_round` on the same schedule, for every thread count.
  [[nodiscard]] std::vector<Delivery<Msg>> collect_round() {
    flush_staged();
    begin_round();
    run_shard_phase();
    std::vector<Delivery<Msg>> out;
    merge_shards(&out, /*assign_ranks=*/false);
    return out;
  }

  // -- Sharded processing mode --------------------------------------------

 private:
  static constexpr unsigned kSubBits = 24;  ///< sends-per-handler-call cap

  /// Meter context captured with each staged send, plus the Mode-B merge
  /// key (frontend sends keep key 0 — their staging order is already the
  /// issue order). `bits` is NOT ambient meter state: it is computed from
  /// the engine's WireFormat at stage time (same place Network computes it)
  /// and replayed through `set_bits` at the barrier.
  struct SendContext {
    MsgKind kind = MsgKind::kData;
    PhaseTag phase = PhaseTag::kRun;
    std::uint8_t flags = 0;
    std::uint32_t fragment = kNoEventNode;
    std::uint32_t bits = 0;
    std::uint64_t key = 0;
  };

  struct Shard;

 public:
  /// Per-shard context a `process_round` handler sends through. Lives on
  /// the worker thread; everything it touches is shard-local, so handlers
  /// must not reach for the meter or another shard's state. Message-kind /
  /// fragment context for the staged sends is set here (it is captured per
  /// send and replayed into the meter at the barrier).
  class ShardContext {
   public:
    void unicast(NodeId u, NodeId v, Msg m) {
      EMST_ASSERT(u < net_->topo_.node_count() &&
                  v < net_->topo_.node_count() && u != v);
      const double d = net_->topo_.distance(u, v);
      EMST_ASSERT_MSG(net_->unbounded_broadcast_ ||
                          d <= net_->topo_.max_radius() * (1.0 + 1e-12),
                      "unicast beyond the maximum transmission radius");
      ctx_.key = (rank_ << kSubBits) | sub_++;
      net_->stage_unicast(shard_->ops, shard_->targets, ctx_, u, v, d,
                          std::move(m));
    }
    void broadcast(NodeId u, double radius, const Msg& m) {
      ctx_.key = (rank_ << kSubBits) | sub_++;
      net_->stage_broadcast(shard_->ops, shard_->targets, ctx_, u, radius,
                            Msg(m));
    }

    void set_kind(MsgKind kind) noexcept { ctx_.kind = kind; }
    void set_fragment(std::uint32_t fragment) noexcept {
      ctx_.fragment = fragment;
    }
    [[nodiscard]] std::size_t shard() const noexcept { return index_; }

   private:
    friend class ShardedNetwork;
    ShardedNetwork* net_ = nullptr;
    Shard* shard_ = nullptr;
    SendContext ctx_{};
    std::size_t index_ = 0;
    std::uint64_t rank_ = 0;  ///< global rank of the delivery being handled
    std::uint64_t sub_ = 0;   ///< send index within the current handler call
  };

  /// Advance one round, letting each shard's worker consume its own
  /// deliveries: `handler(ShardContext&, const Delivery<Msg>&)` runs on the
  /// owning worker, in shard-local delivery order. Sends staged by the
  /// handler are merged at the barrier into the order a sequential driver
  /// iterating the full collect_round() batch would have issued them, then
  /// charged and routed. Handlers must be deterministic functions of the
  /// delivery and shard-local state. Returns the number of deliveries.
  template <typename Handler>
  std::size_t process_round(Handler&& handler) {
    flush_staged();
    begin_round();
    run_shard_phase();
    merge_shards(nullptr, /*assign_ranks=*/true);
    const SendContext ambient = meter_context();
    const std::size_t delivered = round_deliveries_;
    auto shard_task = [&](std::size_t s) {
      Shard& shard = shards_[s];
      ShardContext ctx;
      ctx.net_ = this;
      ctx.shard_ = &shard;
      ctx.ctx_ = ambient;
      ctx.index_ = s;
      std::size_t next_rank = 0;
      for (Drained& item : shard.drained) {
        if (item.fate != kFateDeliver) continue;
        ctx.rank_ = shard.ranks[next_rank++];
        ctx.sub_ = 0;
        const Delivery<Msg> delivery{item.from, item.to, item.distance,
                                     std::move(item.msg)};
        handler(ctx, delivery);
      }
    };
    if (shard_count_ == 1) {
      shard_task(0);
    } else {
      pool_.run(shard_task, shard_count_);
    }
    merge_send_logs();
    flush_staged();
    return delivered;
  }

  // -- Accessors (Network-compatible) -------------------------------------

  [[nodiscard]] const Topo& topology() const noexcept { return topo_; }
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
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }
  [[nodiscard]] std::size_t shard_of(NodeId u) const {
    return node_shard_[u];
  }
  /// The engine's message codec (wire.hpp) — same contract as
  /// Network::wire_format(). Configure before sending; staged sends capture
  /// their size at issue time.
  [[nodiscard]] WireFormat<Msg>& wire_format() noexcept { return wire_; }
  [[nodiscard]] const WireFormat<Msg>& wire_format() const noexcept {
    return wire_;
  }

 private:
  static constexpr std::uint8_t kFateDeliver = 0;
  static constexpr std::uint8_t kFateLost = 1;
  static constexpr std::uint8_t kFateCrashed = 2;
  static constexpr std::size_t kSmallBucket = 48;  // same policy as Network

  struct Target {
    NodeId to;
    double distance;
  };

  /// One staged send (unicast or broadcast) awaiting the barrier replay.
  struct StagedOp {
    SendContext ctx;
    NodeId from = 0;
    double reach = 0.0;  ///< distance (unicast) or power radius (broadcast)
    std::uint32_t first = 0;  ///< targets range in the owning target array
    std::uint32_t count = 0;
    bool is_broadcast = false;
    bool suppressed = false;  ///< sender down at issue time (clock-stable)
    Msg msg{};
  };

  /// One routed physical message in a shard's inbox (the consume side of
  /// the mailbox pair), awaiting ingest into the shard's calendar ring.
  struct Wire {
    std::uint64_t seq;  ///< global send sequence — fate stream + ordering
    std::uint64_t due;  ///< pre-FIFO-clamp delivery round
    NodeId from;
    NodeId to;
    double distance;
    std::uint32_t bits;  ///< wire size, stamped on delivery-time drop events
    Msg msg;
  };

  struct Item {
    NodeId from;
    NodeId to;
    double distance;
    std::uint32_t bits;
    Msg msg;
    bool lost;  ///< counter-based channel fate, evaluated at ingest
  };

  /// One ordered (receiver, sequence) entry of a shard's drained bucket,
  /// classified but not yet filtered — the serial merge emits drop events
  /// in global order and hands survivors out.
  struct Drained {
    NodeId from;
    NodeId to;
    double distance;
    std::uint32_t bits;
    std::uint8_t fate;
    Msg msg;
  };

  struct Shard {
    std::vector<std::vector<Item>> buckets;  ///< calendar ring (D+1 buckets)
    std::size_t head = 0;  ///< bucket due at the CURRENT round during ingest
    support::FlatMap64 last_due;  ///< per-directed-edge FIFO clamp
    support::FlatMap64 ge_state;  ///< per-link Gilbert–Elliott burst chains
    std::vector<Wire> inbox;      ///< mailbox consume buffer (swap = barrier)
    std::vector<Drained> drained; ///< this round's ordered classified items
    std::size_t cursor = 0;       ///< merge position into `drained`
    std::vector<std::uint64_t> ranks;  ///< global rank per surviving item
    // Mode-B send log (the produce side of the mailbox pair).
    std::vector<StagedOp> ops;
    std::vector<Target> targets;
    std::size_t log_cursor = 0;
    // Drain scratch, reused across rounds.
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> recv_slot;
    std::vector<NodeId> touched;
  };

  // -- Construction --------------------------------------------------------

  void build_partition() {
    // Grid of g×g tiles, tiles assigned round-robin to shards: every shard
    // owns a spatially-coherent tile set, and the mapping depends only on
    // (points, shard count) — never on scheduling.
    std::size_t g = 1;
    while (g * g < shard_count_) ++g;
    const auto& points = topo_.points();
    node_shard_.resize(points.size());
    const double scale = static_cast<double>(g);
    auto cell = [g, scale](double coord) {
      const double scaled = coord * scale;
      if (!(scaled > 0.0)) return std::size_t{0};
      return std::min(static_cast<std::size_t>(scaled), g - 1);
    };
    for (std::size_t u = 0; u < points.size(); ++u) {
      const std::size_t tile = cell(points[u].x) + g * cell(points[u].y);
      node_shard_[u] = static_cast<std::uint32_t>(tile % shard_count_);
    }
  }

  // -- Staging (issue side) ------------------------------------------------

  [[nodiscard]] SendContext meter_context() const noexcept {
    return {meter_.kind(), meter_.phase(), meter_.flags(), meter_.fragment(),
            0};
  }

  void stage_unicast(std::vector<StagedOp>& ops, std::vector<Target>& targets,
                     const SendContext& ctx, NodeId u, NodeId v, double d,
                     Msg m) {
    StagedOp op;
    op.ctx = ctx;
    op.ctx.bits = wire_.bits(m);
    op.from = u;
    op.reach = d;
    op.first = static_cast<std::uint32_t>(targets.size());
    op.count = 1;
    op.suppressed = faults_.enabled() && faults_.crashed(u);
    op.msg = std::move(m);
    const std::size_t live = op.suppressed ? 0 : 1;
    targets.push_back({v, d});
    ops.push_back(std::move(op));
    note_staged(ops, live);
  }

  void stage_broadcast(std::vector<StagedOp>& ops,
                       std::vector<Target>& targets, const SendContext& ctx,
                       NodeId u, double radius, Msg m) {
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
    op.first = static_cast<std::uint32_t>(targets.size());
    op.is_broadcast = true;
    op.suppressed = faults_.enabled() && faults_.crashed(u);
    op.msg = std::move(m);
    if (!op.suppressed) {
      // Same receiver enumeration as Network::broadcast_impl, including the
      // per-receiver distance recomputation (bitwise-equal charges depend
      // on identical inputs, not just identical sets).
      if (radius <= topo_.max_radius()) {
        for (const graph::Neighbor& nb : topo_.neighbors(u)) {
          if (nb.w <= radius) targets.push_back({nb.id, topo_.distance(u, nb.id)});
          else
            break;
        }
      } else {
        for (const NodeId v : topo_.nodes_within(u, radius))
          targets.push_back({v, topo_.distance(u, v)});
      }
      op.count =
          static_cast<std::uint32_t>(targets.size()) - op.first;
    }
    ops.push_back(std::move(op));
    note_staged(ops, ops.back().count);
  }

  /// Track staged-but-unflushed physical deliveries for pending(). Only the
  /// frontend staging feeds pending() between rounds; Mode-B logs are
  /// flushed before process_round returns, inside the same call.
  void note_staged(const std::vector<StagedOp>& ops, std::size_t live) {
    if (&ops == &ops_) staged_live_ += live;
  }

  // -- Barrier: serial charge replay + routing -----------------------------

  /// Replay the frontend staging through the meter in issue order (the ONLY
  /// place charges, suppressions and their telemetry events happen — float
  /// accumulation order and event order match Network exactly), then route
  /// each physical message to its receiver's shard inbox.
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
      if (op.is_broadcast) {
        meter_.charge_broadcast(op.from, op.reach, op.count);
        if (op.count == 0) continue;
        const std::uint32_t last = op.first + op.count - 1;
        for (std::uint32_t i = op.first; i < last; ++i)
          route(op.from, targets_[i].to, targets_[i].distance, op.ctx.bits,
                Msg(op.msg));
        route(op.from, targets_[last].to, targets_[last].distance,
              op.ctx.bits, std::move(op.msg));
      } else {
        const Target& t = targets_[op.first];
        meter_.charge_unicast(op.from, t.to, t.distance);
        route(op.from, t.to, t.distance, op.ctx.bits, std::move(op.msg));
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

  void route(NodeId u, NodeId v, double d, std::uint32_t bits, Msg m) {
    // Sequential draws, one per routed message, in global send order — the
    // exact stream Network::enqueue consumes. The FIFO clamp is applied
    // shard-side (per-link state lives with the receiver's shard).
    std::uint64_t due = now_ + 1;
    if (delays_.max_extra_delay > 0)
      due += delay_rng_.uniform_int(delays_.max_extra_delay + 1);
    Shard& shard = shards_[node_shard_[v]];
    shard.inbox.push_back({seq_++, due, u, v, d, bits, std::move(m)});
    ++inflight_;
  }

  void begin_round() {
    meter_.tick_round();
    ++now_;
    if (faults_.enabled()) {
      // Serial section: the chaos controller consult (and its injections)
      // happen before any worker runs. `inflight_` here counts routed,
      // not-yet-delivered messages — Network's pre-drain count — so both
      // engines show strategies the same view.
      faults_.set_in_flight(inflight_);
      faults_.advance_to(now_);
      for (const CrashWindow& w : faults_.take_new_injections())
        meter_.note_event(EventType::kCrashInject, w.node, kNoEventNode, 0.0,
                          w.until);
    }
    if (oracle_ != nullptr) oracle_->on_round(now_, meter_);
  }

  // -- Parallel section: ingest + drain, one task per shard ----------------

  void run_shard_phase() {
    if (shard_count_ == 1) {
      shard_round(shards_[0]);
    } else {
      pool_.run([this](std::size_t s) { shard_round(shards_[s]); },
                shard_count_);
    }
  }

  /// Worker body. Touches only `shard` plus read-only shared state (the
  /// topology, the fault model/clock/windows — all written strictly between
  /// parallel sections). Fates come from the counter-based stream, burst
  /// state from the shard-local map.
  void shard_round(Shard& shard) {
    const std::uint32_t max_delay = delays_.max_extra_delay;
    for (Wire& wire : shard.inbox) {
      std::uint64_t due = wire.due;
      if (max_delay > 0) {
        const std::uint64_t key = (static_cast<std::uint64_t>(wire.from) << 32) |
                                  static_cast<std::uint64_t>(wire.to);
        const auto slot = shard.last_due.find_or_insert(key, due);
        if (!slot.inserted) {
          due = std::max(due, *slot.value);
          *slot.value = due;
        }
      }
      const bool lost =
          faults_.enabled() &&
          faults_.drop_at(wire.seq, wire.from, wire.to, shard.ge_state);
      // Ring-wrap invariant (see the calendar audit in network.hpp): after
      // the clamp, due ∈ [now, now + D] — D+1 residues, D+1 buckets.
      EMST_ASSERT(due >= now_ && due - now_ <= max_delay);
      std::size_t idx = shard.head + static_cast<std::size_t>(due - now_);
      if (idx >= shard.buckets.size()) idx -= shard.buckets.size();
      shard.buckets[idx].push_back({wire.from, wire.to, wire.distance,
                                    wire.bits, std::move(wire.msg), lost});
    }
    shard.inbox.clear();
    std::vector<Item>& bucket = shard.buckets[shard.head];
    shard.head = shard.head + 1 == shard.buckets.size() ? 0 : shard.head + 1;
    shard.drained.clear();
    drain_by_receiver(shard, bucket);
    bucket.clear();
  }

  void classify(Shard& shard, Item& item) {
    std::uint8_t fate = kFateDeliver;
    if (faults_.enabled()) {
      if (item.lost) fate = kFateLost;
      else if (faults_.crashed(item.to))
        fate = kFateCrashed;
    }
    shard.drained.push_back({item.from, item.to, item.distance, item.bits,
                             fate, std::move(item.msg)});
  }

  /// Same three-strategy ordering as Network::drain_by_receiver — append
  /// order within a shard bucket IS global sequence order, so stable
  /// by-receiver ordering yields (receiver, sequence) per shard.
  void drain_by_receiver(Shard& shard, std::vector<Item>& bucket) {
    const std::size_t b = bucket.size();
    if (b == 0) return;
    bool in_order = true;
    for (std::size_t i = 1; i < b; ++i) {
      if (bucket[i - 1].to > bucket[i].to) {
        in_order = false;
        break;
      }
    }
    if (in_order) {
      for (Item& item : bucket) classify(shard, item);
      return;
    }
    shard.order.resize(b);
    if (b <= kSmallBucket) {
      for (std::size_t i = 0; i < b; ++i)
        shard.order[i] = static_cast<std::uint32_t>(i);
      std::stable_sort(shard.order.begin(), shard.order.end(),
                       [&bucket](std::uint32_t a, std::uint32_t c) {
                         return bucket[a].to < bucket[c].to;
                       });
    } else {
      if (shard.recv_slot.size() < topo_.node_count())
        shard.recv_slot.assign(topo_.node_count(), 0);
      shard.touched.clear();
      for (const Item& item : bucket) {
        if (shard.recv_slot[item.to]++ == 0) shard.touched.push_back(item.to);
      }
      std::sort(shard.touched.begin(), shard.touched.end());
      std::uint32_t offset = 0;
      for (const NodeId r : shard.touched) {
        const std::uint32_t count = shard.recv_slot[r];
        shard.recv_slot[r] = offset;
        offset += count;
      }
      for (std::size_t i = 0; i < b; ++i)
        shard.order[shard.recv_slot[bucket[i].to]++] =
            static_cast<std::uint32_t>(i);
      for (const NodeId r : shard.touched) shard.recv_slot[r] = 0;
    }
    for (const std::uint32_t idx : shard.order) classify(shard, bucket[idx]);
  }

  // -- Barrier: serial merge -----------------------------------------------

  /// Walk the shards' drained lists in global (receiver, sequence) order —
  /// receivers partition across shards, so a receiver-keyed S-way merge is
  /// exact and tie-free. Drop events and fault stats are emitted here, in
  /// the same interleaved order Network's delivery loop produces them.
  void merge_shards(std::vector<Delivery<Msg>>* out, bool assign_ranks) {
    std::size_t total = 0;
    for (Shard& shard : shards_) {
      shard.cursor = 0;
      shard.ranks.clear();
      total += shard.drained.size();
    }
    inflight_ -= total;
    if (out != nullptr) out->reserve(total);
    std::uint64_t rank = 0;
    for (;;) {
      Shard* next = nullptr;
      for (Shard& shard : shards_) {
        if (shard.cursor >= shard.drained.size()) continue;
        if (next == nullptr || shard.drained[shard.cursor].to <
                                   next->drained[next->cursor].to) {
          next = &shard;
        }
      }
      if (next == nullptr) break;
      Drained& item = next->drained[next->cursor++];
      switch (item.fate) {
        case kFateLost:
          ++faults_.stats().lost;
          meter_.set_bits(item.bits);
          meter_.note_event(EventType::kLoss, item.from, item.to,
                            item.distance);
          meter_.clear_bits();
          break;
        case kFateCrashed:
          ++faults_.stats().dropped_crashed;
          meter_.set_bits(item.bits);
          meter_.note_event(EventType::kCrashDrop, item.from, item.to,
                            item.distance);
          meter_.clear_bits();
          break;
        default:
          if (assign_ranks) next->ranks.push_back(rank);
          if (out != nullptr) {
            out->push_back(
                {item.from, item.to, item.distance, std::move(item.msg)});
          }
          ++rank;
          break;
      }
    }
    round_deliveries_ = static_cast<std::size_t>(rank);
  }

  /// Merge the shards' Mode-B send logs into the frontend staging arrays,
  /// ordered by (delivery rank, per-handler issue index) — each log is
  /// already sorted by that key, so this is another tie-free S-way merge.
  void merge_send_logs() {
    for (Shard& shard : shards_) shard.log_cursor = 0;
    for (;;) {
      Shard* next = nullptr;
      for (Shard& shard : shards_) {
        if (shard.log_cursor >= shard.ops.size()) continue;
        if (next == nullptr || shard.ops[shard.log_cursor].ctx.key <
                                   next->ops[next->log_cursor].ctx.key) {
          next = &shard;
        }
      }
      if (next == nullptr) break;
      StagedOp op = std::move(next->ops[next->log_cursor++]);
      const std::uint32_t first = op.first;
      op.first = static_cast<std::uint32_t>(targets_.size());
      for (std::uint32_t i = 0; i < op.count; ++i)
        targets_.push_back(next->targets[first + i]);
      ops_.push_back(std::move(op));
    }
    for (Shard& shard : shards_) {
      shard.ops.clear();
      shard.targets.clear();
    }
  }

  const Topo& topo_;
  EnergyMeter meter_;
  WireFormat<Msg> wire_{};
  bool unbounded_broadcast_;
  DelayModel delays_;
  support::Rng delay_rng_;
  FaultInjector faults_;
  InvariantOracle* oracle_ = nullptr;
  std::size_t shard_count_;
  std::vector<std::uint32_t> node_shard_;  ///< node → shard (tile % shards)
  std::vector<Shard> shards_;
  support::WorkerPool pool_;
  // Frontend staging (issue order = replay order).
  std::vector<StagedOp> ops_;
  std::vector<Target> targets_;
  std::size_t staged_live_ = 0;  ///< staged deliveries that will route
  std::uint64_t seq_ = 0;        ///< global send sequence number
  std::size_t inflight_ = 0;
  std::size_t round_deliveries_ = 0;
  std::uint64_t now_ = 0;
};

}  // namespace emst::sim
