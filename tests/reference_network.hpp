// The ORIGINAL sort-per-round network engine, kept verbatim as a test oracle.
//
// This is the seed implementation that `sim::Network<Msg>` (network.hpp)
// replaced with a calendar queue. It defines the delivery contract the
// calendar queue must reproduce *byte-for-byte* (receiver-then-sequence
// order, per-edge FIFO under random delays, fault fates, meter charges and
// telemetry events): network_equivalence_test.cpp, calendar_ring_test.cpp,
// determinism_test.cpp and fault_test.cpp replay identical schedules
// through both engines and compare every round.
//
// It lives under tests/ because nothing else may use it: every
// collect_round() re-sorts the entire in-flight vector (O(M log M)) and
// erases the delivered prefix (O(M) memmove).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "emst/sim/meter.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/topology.hpp"
#include "emst/sim/wire.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/rng.hpp"

namespace emst::sim {

template <typename Msg>
class ReferenceNetwork {
 public:
  ReferenceNetwork(const Topology& topo, geometry::PathLoss model = {},
                   bool unbounded_broadcast = false, DelayModel delays = {},
                   FaultModel faults = {}, Telemetry* telemetry = nullptr)
      : topo_(topo),
        meter_(model),
        unbounded_broadcast_(unbounded_broadcast),
        delays_(delays),
        delay_rng_(delays.seed),
        faults_(faults) {
    meter_.attach_telemetry(telemetry);
    if (faults_.enabled())
      faults_.set_chaos_env(topo_.node_count(), topo_.points());
  }

  /// Send m from u to v; delivered next round. Charges d(u,v)^α.
  void unicast(NodeId u, NodeId v, Msg m) {
    EMST_ASSERT(u < topo_.node_count() && v < topo_.node_count());
    unicast(u, graph::Neighbor{v, topo_.distance(u, v), graph::kNoEdgeIndex},
            std::move(m));
  }

  /// Send m from u over a link of neighbors(u): charges link.w and delivers
  /// on port link.twin, as Network::unicast does.
  void unicast(NodeId u, const graph::Neighbor& link, Msg m) {
    const NodeId v = link.id;
    EMST_ASSERT(u < topo_.node_count() && v < topo_.node_count() && u != v);
    const double d = link.w;
    EMST_ASSERT_MSG(unbounded_broadcast_ ||
                        d <= topo_.max_radius() * (1.0 + 1e-12),
                    "unicast beyond the maximum transmission radius");
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

  /// Locally broadcast m from u at power radius `radius`. Charges radius^α.
  void broadcast(NodeId u, double radius, const Msg& m) {
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
    std::vector<NodeId> receivers;
    if (radius <= topo_.max_radius()) {
      for (const graph::Neighbor& nb : topo_.neighbors(u)) {
        if (nb.w <= radius) receivers.push_back(nb.id);
        // neighbors are sorted by weight; stop at the first out of range
        else
          break;
      }
    } else {
      receivers = topo_.nodes_within(u, radius);
    }
    meter_.charge_broadcast(u, radius, receivers.size());
    meter_.clear_bits();
    for (NodeId v : receivers)
      enqueue(u, v, topo_.distance(u, v), bits, Msg(m), graph::kNoSlot);
  }

  [[nodiscard]] bool pending() const noexcept { return !inflight_.empty(); }

  /// Advance to the next round and return the messages due for delivery,
  /// sorted by (receiver, send sequence) — which preserves per-edge FIFO.
  [[nodiscard]] std::vector<Delivery<Msg>> collect_round() {
    meter_.tick_round();
    ++now_;
    if (faults_.enabled()) {
      faults_.set_in_flight(inflight_.size());
      faults_.advance_to(now_);
      for (const CrashWindow& w : faults_.take_new_injections())
        meter_.note_event(EventType::kCrashInject, w.node, kNoEventNode, 0.0,
                          w.until);
    } else {
      faults_.advance_to(now_);
    }
    std::sort(inflight_.begin(), inflight_.end(),
              [](const Item& a, const Item& b) {
                if (a.due != b.due) return a.due < b.due;
                if (a.to != b.to) return a.to < b.to;
                return a.seq < b.seq;
              });
    std::vector<Delivery<Msg>> out;
    std::size_t consumed = 0;
    for (Item& item : inflight_) {
      if (item.due > now_) break;
      ++consumed;
      // Same delivery-time drop rule as Network (see network.hpp).
      if (item.lost) {
        ++faults_.stats().lost;
        meter_.set_bits(item.bits);
        meter_.note_event(EventType::kLoss, item.from, item.to, item.distance);
        meter_.clear_bits();
        continue;
      }
      if (faults_.enabled() && faults_.crashed(item.to)) {
        ++faults_.stats().dropped_crashed;
        meter_.set_bits(item.bits);
        meter_.note_event(EventType::kCrashDrop, item.from, item.to,
                          item.distance);
        meter_.clear_bits();
        continue;
      }
      out.push_back({item.from, item.to, item.distance, std::move(item.msg),
                     item.port});
    }
    inflight_.erase(inflight_.begin(),
                    inflight_.begin() + static_cast<std::ptrdiff_t>(consumed));
    return out;
  }

  [[nodiscard]] EnergyMeter& meter() noexcept { return meter_; }
  [[nodiscard]] const EnergyMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] FaultInjector& faults() noexcept { return faults_; }
  [[nodiscard]] const FaultStats& fault_stats() const noexcept {
    return faults_.stats();
  }

 private:
  struct Item {
    NodeId from;
    NodeId to;
    double distance;
    Msg msg;
    std::uint64_t seq;
    std::uint64_t due;  ///< round at which the message arrives
    bool lost = false;  ///< channel fate, drawn at send time
    std::uint32_t bits = 0;
    std::uint32_t port = graph::kNoSlot;
  };

  void enqueue(NodeId u, NodeId v, double d, std::uint32_t bits, Msg m,
               std::uint32_t port) {
    const bool lost = faults_.enabled() && faults_.drop(u, v);
    std::uint64_t due = now_ + 1;
    if (delays_.max_extra_delay > 0) {
      due += delay_rng_.uniform_int(delays_.max_extra_delay + 1);
      // FIFO per directed edge: never schedule before an earlier message on
      // the same link.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
      auto [it, inserted] = last_due_.try_emplace(key, due);
      if (!inserted) {
        due = std::max(due, it->second);
        it->second = due;
      }
    }
    inflight_.push_back(
        {u, v, d, std::move(m), next_seq_++, due, lost, bits, port});
  }

  const Topology& topo_;
  EnergyMeter meter_;
  WireFormat<Msg> wire_{};
  bool unbounded_broadcast_;
  DelayModel delays_;
  support::Rng delay_rng_;
  FaultInjector faults_;
  std::vector<Item> inflight_;
  std::unordered_map<std::uint64_t, std::uint64_t> last_due_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t now_ = 0;
};

}  // namespace emst::sim
