// Synchronous message-passing network (paper §II distributed computing model).
//
// Semantics:
//  - Communication happens in discrete rounds. A message sent during round t
//    is delivered at the beginning of round t+1.
//  - `unicast(u, v, m)` costs d(u,v)^α and delivers to v only. Sent over a
//    link (`unicast(u, link, m)`, link an entry of neighbors(u)), it also
//    arrives on a port: the receiver's row position of u (Delivery::port),
//    which a port-numbered node knows for free (docs/MODEL.md).
//  - `broadcast(u, ρ, m)` costs ρ^α once and delivers to every node within
//    Euclidean distance ρ of u (local broadcasting, §II). ρ may exceed the
//    topology's max radius only if `unbounded_broadcast` is enabled (used by
//    Co-NNT's doubling probes, whose analysis caps ρ at the diameter √2).
//  - Delivery order within a round is deterministic: sorted by receiver,
//    then by global send sequence — which also preserves per-edge FIFO.
//  - No collisions/interference: each transmission succeeds (§II) — UNLESS a
//    `FaultModel` is supplied (docs/ROBUSTNESS.md). Then: transmissions from
//    a crashed sender are suppressed (free — a dead radio emits nothing);
//    channel losses are drawn at send time in global send order (so the
//    reference engine sees identical fates) but, like messages addressed to
//    a receiver that is down when they arrive, are removed at DELIVERY time
//    — the sender was charged, the round advances, and `pending()` drains
//    normally, so drivers that loop on it never wedge on doomed messages.
//
// Engine (docs/PERF.md has the full story): in-flight messages live in a
// *calendar queue* — a ring of per-round buckets keyed by due round. With
// max_extra_delay = D, every due falls in [now+1, now+1+D] (the per-edge
// FIFO clamp can only raise a due to another value in that window), which
// covers D+1 distinct residues mod D+1, so a ring of D+1 buckets never
// aliases. Enqueue appends to its bucket in O(1); collect_round() drains
// exactly one bucket and orders it by receiver (ReceiverOrder below: a
// counting scatter over a receiver bitmap, or a small indexed sort), instead
// of re-sorting the whole in-flight set every round as the seed engine did
// (see tests/reference_network.hpp). Messages within a bucket are appended in
// send-sequence order, so any stable by-receiver ordering reproduces the
// (receiver, sequence) contract bit-for-bit.
//
// The payload type is a template parameter; each algorithm defines its own
// message struct or variant.
#pragma once

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>
#include <vector>

#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/oracle.hpp"
#include "emst/sim/topology.hpp"
#include "emst/sim/wire.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/flat_map.hpp"
#include "emst/support/rng.hpp"

namespace emst::sim {

template <typename Msg>
struct Delivery {
  NodeId from = 0;
  NodeId to = 0;
  double distance = 0.0;  ///< d(from, to)
  Msg msg{};
  /// Position of `from` in neighbors(to) when the message was sent over a
  /// link; graph::kNoSlot for id unicasts, broadcasts and deliveries rebuilt
  /// from rank frames.
  std::uint32_t port = graph::kNoSlot;
};

/// Message-delay model. The default (max_extra_delay = 0) is the paper's
/// synchronous model: sent in round t, delivered in round t+1. With
/// max_extra_delay > 0 each message draws an extra uniform delay in
/// [0, max_extra_delay], which realizes an *asynchronous* execution —
/// per-edge FIFO is still enforced (GHS requires FIFO links), so the classic
/// GHS correctness proof continues to apply. Delays are drawn from `seed`
/// deterministically.
struct DelayModel {
  std::uint32_t max_extra_delay = 0;
  std::uint64_t seed = 0x5eedULL;
};

/// Orders one calendar bucket by (receiver, position in the bucket). Both
/// message engines share it: Network's drain below and the rank worker loop
/// (apps/actor_rank.hpp), whose buckets are likewise appended in send order,
/// so the stable by-receiver order is the (receiver, sequence) contract.
/// Three strategies, cheapest first:
///  1. the bucket is already in receiver order (a single sender walking its
///     sorted neighbour row) → visited as it stands;
///  2. a small bucket → stable indexed sort;
///  3. a large bucket → counting scatter. Counting marks each receiver in a
///     two-level bitmap (one bit per node, one summary bit per 64-bit word
///     of it), and an ascending countr_zero walk of the marks, clearing
///     them as it goes, turns the counts into offsets: B items to U
///     receivers cost O(B + U + words visited), with no comparison sort.
/// The scratch tables are sized on the first large bucket and reused.
class ReceiverOrder {
 public:
  static constexpr std::size_t kSmallBucket = 48;

  /// Call visit(item) on every item of `bucket` in (receiver, position)
  /// order. Every receiver must be below `node_count`.
  template <typename Item, typename Visit>
  void for_each(std::vector<Item>& bucket, std::size_t node_count,
                Visit&& visit) {
    const std::size_t b = bucket.size();
    bool in_order = true;
    for (std::size_t i = 1; i < b; ++i) {
      if (bucket[i - 1].to > bucket[i].to) {
        in_order = false;
        break;
      }
    }
    if (in_order) {
      for (Item& item : bucket) visit(item);
      return;
    }
    order_.resize(b);
    if (b <= kSmallBucket) {
      std::iota(order_.begin(), order_.end(), std::uint32_t{0});
      std::stable_sort(order_.begin(), order_.end(),
                       [&bucket](std::uint32_t a, std::uint32_t c) {
                         return bucket[a].to < bucket[c].to;
                       });
    } else {
      scatter(bucket, node_count);
    }
    for (const std::uint32_t i : order_) visit(bucket[i]);
  }

 private:
  template <typename Item>
  void scatter(const std::vector<Item>& bucket, std::size_t node_count) {
    if (count_.size() < node_count) {
      count_.resize(node_count, 0);
      marks_.assign((node_count + 63) / 64, 0);
      summary_.assign((marks_.size() + 63) / 64, 0);
    }
    // count_ holds the previous bucket's offsets: a receiver's first item
    // (its mark still clear) restarts its count at 1.
    for (const Item& item : bucket) {
      const std::size_t r = item.to;
      EMST_ASSERT(r < node_count);
      std::uint64_t& word = marks_[r / 64];
      const std::uint64_t bit = std::uint64_t{1} << (r % 64);
      count_[r] = (word & bit) != 0 ? count_[r] + 1 : 1;
      word |= bit;
      summary_[r / 4096] |= std::uint64_t{1} << (r / 64 % 64);
    }
    std::uint32_t offset = 0;
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t words = std::exchange(summary_[s], 0); words != 0;
           words &= words - 1) {
        const std::size_t w =
            s * 64 + static_cast<std::size_t>(std::countr_zero(words));
        for (std::uint64_t bits = std::exchange(marks_[w], 0); bits != 0;
             bits &= bits - 1) {
          const std::size_t r =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          const std::uint32_t count = count_[r];
          count_[r] = offset;
          offset += count;
        }
      }
    }
    for (std::size_t i = 0; i < bucket.size(); ++i)
      order_[count_[bucket[i].to]++] = static_cast<std::uint32_t>(i);
  }

  std::vector<std::uint32_t> order_;    ///< bucket positions, visit order
  std::vector<std::uint32_t> count_;    ///< per receiver: count, then offset
  std::vector<std::uint64_t> marks_;    ///< one bit per receiver counted
  std::vector<std::uint64_t> summary_;  ///< one bit per nonzero marks_ word
};

/// Runs on the materialized CSR backend (`sim::Topology`) alone. Its two
/// drivers, classic GHS and the Co-NNT actor, get the CSR built for them
/// when a caller holds the implicit backend (`emst::run`, `nnt::run_connt`);
/// the meter-direct drivers (sync GHS, EOPT, choreographed Co-NNT) need no
/// engine and run on either backend.
template <typename Msg>
class Network {
 public:
  Network(const Topology& topo, geometry::PathLoss model = {},
          bool unbounded_broadcast = false, DelayModel delays = {},
          FaultModel faults = {}, Telemetry* telemetry = nullptr)
      : topo_(topo),
        meter_(model),
        unbounded_broadcast_(unbounded_broadcast),
        delays_(delays),
        delay_rng_(delays.seed),
        faults_(faults),
        buckets_(delays.max_extra_delay + 1) {
    meter_.attach_telemetry(telemetry);
    if (faults_.enabled())
      faults_.set_chaos_env(topo_.node_count(), topo_.points());
  }

  /// Send m from u to v; delivered next round, without a port. Charges
  /// d(u,v)^α. With `unbounded_broadcast` (power-adaptive radios, e.g.
  /// Co-NNT), the range check is waived for unicasts too — replies travel
  /// back over whatever distance the probe reached.
  void unicast(NodeId u, NodeId v, Msg m) {
    EMST_ASSERT(u < topo_.node_count() && v < topo_.node_count());
    unicast(u, graph::Neighbor{v, topo_.distance(u, v), graph::kNoEdgeIndex},
            std::move(m));
  }

  /// Send m from u over `link`, an entry of topology().neighbors(u): charges
  /// link.w, which is d(u, link.id) on both backends, and delivers on port
  /// link.twin.
  void unicast(NodeId u, const graph::Neighbor& link, Msg m) {
    const NodeId v = link.id;
    EMST_ASSERT(u < topo_.node_count() && v < topo_.node_count() && u != v);
    const double d = link.w;
    EMST_ASSERT_MSG(unbounded_broadcast_ ||
                        d <= topo_.max_radius() * (1.0 + 1e-12),
                    "unicast beyond the maximum transmission radius");
    // Wire size is stamped before the suppress check so a crashed sender's
    // kSuppress event still records how many bits never made it to air —
    // the replayer relies on this to rebuild ARQ data_bits exactly.
    const std::uint32_t bits = wire_.bits(m);
    meter_.set_bits(bits);
    if (faults_.enabled() && faults_.crashed(u)) {
      ++faults_.stats().suppressed;
      meter_.note_event(EventType::kSuppress, u, v, d);
      meter_.clear_bits();
      return;
    }
    meter_.charge_unicast(u, v, d);
    meter_.clear_bits();
    enqueue(u, v, d, bits, std::move(m), link.twin);
  }

  /// Locally broadcast m from u at power radius `radius`; every node within
  /// `radius` receives it next round. Charges radius^α once.
  void broadcast(NodeId u, double radius, const Msg& m) {
    broadcast_impl(u, radius, m);
  }

  /// Rvalue overload: the last receiver takes ownership of the payload
  /// instead of copying it (matters for heap-backed message types).
  void broadcast(NodeId u, double radius, Msg&& m) {
    broadcast_impl(u, radius, std::move(m));
  }

  [[nodiscard]] bool pending() const noexcept { return inflight_count_ > 0; }

  /// Advance to the next round and return the messages due for delivery,
  /// sorted by (receiver, send sequence) — which preserves per-edge FIFO.
  [[nodiscard]] std::vector<Delivery<Msg>> collect_round() {
    meter_.tick_round();
    ++now_;
    // head_ indexed the bucket for round now_+1 before the increment — i.e.
    // for the round that just became due.
    std::vector<Item>& bucket = buckets_[head_];
    head_ = head_ + 1 == buckets_.size() ? 0 : head_ + 1;
    if (faults_.enabled()) {
      // The chaos controller sees the pre-drain in-flight count (messages
      // enqueued and not yet delivered) — the same value DistributedNetwork
      // reports at its barrier, so strategies inject identically on both.
      faults_.set_in_flight(inflight_count_);
      faults_.advance_to(now_);
      for (const CrashWindow& w : faults_.take_new_injections())
        meter_.note_event(EventType::kCrashInject, w.node, kNoEventNode, 0.0,
                          w.until);
    }
    inflight_count_ -= bucket.size();
    if (oracle_ != nullptr) oracle_->on_round(now_, meter_);
    std::vector<Delivery<Msg>> out;
    out.reserve(bucket.size());
    order_.for_each(bucket, topo_.node_count(),
                    [&](Item& item) { deliver(item, out); });
    bucket.clear();
    return out;
  }

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] EnergyMeter& meter() noexcept { return meter_; }
  [[nodiscard]] const EnergyMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] FaultInjector& faults() noexcept { return faults_; }
  [[nodiscard]] const FaultStats& fault_stats() const noexcept {
    return faults_.stats();
  }
  /// Attach a runtime invariant oracle, checked at every round barrier.
  /// Null (the default) costs one pointer test per round.
  void attach_oracle(InvariantOracle* oracle) noexcept { oracle_ = oracle; }
  [[nodiscard]] InvariantOracle* oracle() const noexcept { return oracle_; }
  /// The engine's message codec (wire.hpp). The default-constructed format
  /// measures nothing; drivers with a real codec configure it here (e.g.
  /// seed a proto::WireContext) before sending.
  [[nodiscard]] WireFormat<Msg>& wire_format() noexcept { return wire_; }
  [[nodiscard]] const WireFormat<Msg>& wire_format() const noexcept {
    return wire_;
  }

 private:
  struct Item {
    NodeId from;
    NodeId to;
    double distance;
    Msg msg;
    /// Wire size, stamped on delivery-time drop events, with the channel
    /// fate (drawn at send time, fault layer) in its top bit, kLost.
    std::uint32_t bits;
    std::uint32_t port;  ///< Delivery::port
    // No seq / due fields: the bucket index encodes the due round and the
    // append order within a bucket IS the send-sequence order.
  };
  static constexpr std::uint32_t kLost = std::uint32_t{1} << 31;

  template <typename M>
  void broadcast_impl(NodeId u, double radius, M&& m) {
    EMST_ASSERT(u < topo_.node_count());
    EMST_ASSERT(radius >= 0.0);
    if (!unbounded_broadcast_) {
      EMST_ASSERT_MSG(radius <= topo_.max_radius() * (1.0 + 1e-12),
                      "broadcast beyond the maximum transmission radius");
    }
    const std::uint32_t bits = wire_.bits(m);
    meter_.set_bits(bits);
    if (faults_.enabled() && faults_.crashed(u)) {
      ++faults_.stats().suppressed;
      meter_.note_event(EventType::kSuppress, u, kNoEventNode, radius);
      meter_.clear_bits();
      return;
    }
    receivers_.clear();
    if (radius <= topo_.max_radius()) {
      // Relies on per-node neighbor ranges being sorted by weight, asserted
      // once at Topology construction (not re-checked in this hot loop).
      const auto nbs = topo_.neighbors(u);
      receivers_.reserve(nbs.size());
      for (const graph::Neighbor& nb : nbs) {
        if (nb.w <= radius) receivers_.push_back(nb.id);
        else
          break;
      }
    } else {
      receivers_ = topo_.nodes_within(u, radius);
    }
    meter_.charge_broadcast(u, radius, receivers_.size());
    meter_.clear_bits();
    if (receivers_.empty()) return;
    for (std::size_t i = 0; i + 1 < receivers_.size(); ++i) {
      const NodeId v = receivers_[i];
      enqueue(u, v, topo_.distance(u, v), bits, Msg(m), graph::kNoSlot);
    }
    const NodeId v = receivers_.back();
    enqueue(u, v, topo_.distance(u, v), bits, Msg(std::forward<M>(m)),
            graph::kNoSlot);
  }

  void enqueue(NodeId u, NodeId v, double d, std::uint32_t bits, Msg m,
               std::uint32_t port) {
    // Channel fate is drawn here, in global send order — identical between
    // this engine and the test oracle — but enforced at delivery time.
    EMST_ASSERT_MSG(bits < kLost, "wire size does not fit an engine item");
    const bool lost = faults_.enabled() && faults_.drop(u, v);
    std::uint64_t due = now_ + 1;
    if (delays_.max_extra_delay > 0) {
      due += delay_rng_.uniform_int(delays_.max_extra_delay + 1);
      // FIFO per directed edge: never schedule before an earlier message on
      // the same link.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
      const auto slot = last_due_.find_or_insert(key, due);
      if (!slot.inserted) {
        due = std::max(due, *slot.value);
        *slot.value = due;
      }
    }
    // Ring indexing without the 64-bit modulo (it showed up per enqueue):
    // head_ is the bucket for round now_+1 and due - (now_+1) <= D, so one
    // conditional wrap suffices. The window invariant (drawn due lies in
    // [now+1, now+1+D]; the FIFO clamp only raises it to another due that
    // was itself in the window) is what keeps D+1 buckets alias-free —
    // checked here so a future delay model that widens the window trips
    // loudly instead of aliasing buckets (tests/calendar_ring_test.cpp).
    EMST_ASSERT(due > now_ && due - now_ - 1 <= delays_.max_extra_delay);
    std::size_t idx = head_ + static_cast<std::size_t>(due - now_ - 1);
    if (idx >= buckets_.size()) idx -= buckets_.size();
    buckets_[idx].push_back(
        {u, v, d, std::move(m), lost ? bits | kLost : bits, port});
    ++inflight_count_;
  }

  /// Final emit step for one ordered item: drop doomed messages (recording
  /// the fault stat + telemetry event) or hand the survivor out. Fault
  /// filtering happens HERE, after receiver ordering, so drop events appear
  /// in the same (receiver, sequence) order the reference engine emits them
  /// — survivors are unaffected (stable ordering of the full bucket equals
  /// stable ordering of the survivors).
  void deliver(Item& item, std::vector<Delivery<Msg>>& out) {
    if (faults_.enabled()) {
      if ((item.bits & kLost) != 0) {
        ++faults_.stats().lost;
        meter_.set_bits(item.bits & ~kLost);
        meter_.note_event(EventType::kLoss, item.from, item.to, item.distance);
        meter_.clear_bits();
        return;
      }
      if (faults_.crashed(item.to)) {
        ++faults_.stats().dropped_crashed;
        meter_.set_bits(item.bits);
        meter_.note_event(EventType::kCrashDrop, item.from, item.to,
                          item.distance);
        meter_.clear_bits();
        return;
      }
    }
    out.push_back(
        {item.from, item.to, item.distance, std::move(item.msg), item.port});
  }

  const Topology& topo_;
  EnergyMeter meter_;
  WireFormat<Msg> wire_{};
  bool unbounded_broadcast_;
  DelayModel delays_;
  support::Rng delay_rng_;
  FaultInjector faults_;
  InvariantOracle* oracle_ = nullptr;
  std::vector<std::vector<Item>> buckets_;  ///< ring keyed by due round
  std::size_t head_ = 0;  ///< bucket holding messages due at round now_+1
  std::size_t inflight_count_ = 0;
  support::FlatMap64 last_due_;             ///< per-directed-edge FIFO clamp
  std::uint64_t now_ = 0;
  // Scratch buffers reused across calls to avoid per-round allocations.
  std::vector<NodeId> receivers_;
  ReceiverOrder order_;
};

}  // namespace emst::sim
