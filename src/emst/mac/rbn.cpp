#include "emst/mac/rbn.hpp"

#include <algorithm>
#include <cmath>

#include "emst/ghs/common.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/rng.hpp"

namespace emst::mac {
namespace {

/// A message with possibly many outstanding receivers (1 for a unicast,
/// the whole neighbourhood for a local broadcast).
struct PendingItem {
  NodeId from = 0;
  std::vector<NodeId> receivers;  // still waiting for a clean copy
  double power_radius = 0.0;
};

struct Engine {
  const sim::Topology& topo;
  RbnOptions options;
  double range;

  RbnStats run(std::vector<PendingItem> pending) {
    RbnStats stats;
    stats.delivered = 0;
    for (const PendingItem& item : pending)
      stats.collision_free_energy += options.pathloss.cost(item.power_radius);
    const std::size_t total_items = pending.size();
    if (pending.empty()) return stats;

    // Interference degree Δ: the most senders that can collide at any
    // receiver (computed once, over the initial batch — conservative).
    std::size_t delta = 1;
    {
      std::vector<bool> is_sender(topo.node_count(), false);
      for (const PendingItem& item : pending) is_sender[item.from] = true;
      for (const PendingItem& item : pending) {
        for (const NodeId v : item.receivers) {
          std::size_t contenders = 0;
          for (const NodeId w : topo.nodes_within(v, range)) {
            if (is_sender[w]) ++contenders;
          }
          if (is_sender[v]) ++contenders;  // a receiver that also sends
          delta = std::max(delta, contenders);
        }
      }
    }
    const double p = options.tx_probability > 0.0
                         ? options.tx_probability
                         : 1.0 / (static_cast<double>(delta) + 1.0);
    const std::size_t slot_cap =
        options.max_slots > 0
            ? options.max_slots
            : 64 * (delta + 1) *
                  (static_cast<std::size_t>(
                       std::log2(static_cast<double>(total_items) + 2.0)) +
                   4);

    support::Rng rng(options.seed);
    std::vector<std::size_t> transmitting;  // indices into pending
    while (!pending.empty()) {
      EMST_ASSERT_MSG(++stats.slots <= slot_cap,
                      "RBN contention did not drain; tx probability mis-tuned");
      transmitting.clear();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (rng.uniform() < p) transmitting.push_back(i);
      }
      if (transmitting.empty()) continue;
      stats.attempts += transmitting.size();
      for (const std::size_t i : transmitting)
        stats.energy += options.pathloss.cost(pending[i].power_radius);

      // Deliver: receiver v of item i hears it iff no OTHER transmitter is
      // within the interference range of v.
      for (const std::size_t i : transmitting) {
        PendingItem& item = pending[i];
        auto collision_at = [&](NodeId v) {
          for (const std::size_t j : transmitting) {
            if (j == i) continue;
            if (topo.distance(pending[j].from, v) <= range) return true;
          }
          return false;
        };
        // Under Tx-Rx the sender's own neighbourhood must be clear too (a
        // transmitting sender cannot simultaneously arbitrate nearby
        // traffic), and a receiver that is itself transmitting hears nothing.
        const bool sender_clear =
            options.rule == InterferenceRule::kRbn || !collision_at(item.from);
        auto receiver_busy = [&](NodeId v) {
          if (options.rule == InterferenceRule::kRbn) return false;
          for (const std::size_t j : transmitting) {
            if (pending[j].from == v) return true;
          }
          return false;
        };
        item.receivers.erase(
            std::remove_if(item.receivers.begin(), item.receivers.end(),
                           [&](NodeId v) {
                             // The copy must also actually reach v.
                             return topo.distance(item.from, v) <=
                                        item.power_radius &&
                                    sender_clear && !collision_at(v) &&
                                    !receiver_busy(v);
                           }),
            item.receivers.end());
      }
      // Drop completed items (iterate indices descending to keep them valid).
      std::sort(transmitting.begin(), transmitting.end(), std::greater<>());
      for (const std::size_t i : transmitting) {
        if (pending[i].receivers.empty()) {
          ++stats.delivered;
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
    EMST_ASSERT(stats.delivered == total_items);
    return stats;
  }
};

}  // namespace

RbnStats resolve_contention(const sim::Topology& topo,
                            std::vector<Transmission> pending,
                            const RbnOptions& options) {
  Engine engine{topo, options,
                options.interference_range > 0.0 ? options.interference_range
                                                 : topo.max_radius()};
  std::vector<PendingItem> items;
  items.reserve(pending.size());
  for (const Transmission& t : pending) {
    EMST_ASSERT(t.from != t.to);
    EMST_ASSERT_MSG(topo.distance(t.from, t.to) <= t.power_radius * (1 + 1e-12),
                    "transmission power cannot reach the receiver");
    items.push_back({t.from, {t.to}, t.power_radius});
  }
  return engine.run(std::move(items));
}

RbnStats replay_log(const sim::Topology& topo, const ghs::TxLog& log,
                    const RbnOptions& options) {
  Engine engine{topo, options,
                options.interference_range > 0.0 ? options.interference_range
                                                 : topo.max_radius()};
  RbnStats total;
  std::uint64_t batch_index = 0;
  for (const ghs::TxBatch& batch : log) {
    std::vector<PendingItem> items;
    items.reserve(batch.size());
    for (const ghs::TxRecord& record : batch) {
      PendingItem item;
      item.from = record.from;
      item.power_radius = record.power_radius;
      if (record.is_broadcast) {
        for (const graph::Neighbor& nb :
             topo.neighbors_within(record.from, record.power_radius)) {
          item.receivers.push_back(nb.id);
        }
        if (item.receivers.empty()) continue;  // nobody in range: free slot
      } else {
        item.receivers.push_back(record.to);
      }
      items.push_back(std::move(item));
    }
    // Per-batch seed derivation keeps the replay deterministic while the
    // batches remain independent.
    Engine batch_engine = engine;
    batch_engine.options.seed =
        support::Rng::stream_seed(options.seed, batch_index++);
    const RbnStats stats = batch_engine.run(std::move(items));
    total.slots += stats.slots;
    total.attempts += stats.attempts;
    total.delivered += stats.delivered;
    total.energy += stats.energy;
    total.collision_free_energy += stats.collision_free_energy;
  }
  return total;
}

RbnStats announcement_round_under_rbn(const sim::Topology& topo, double radius,
                                      const RbnOptions& options) {
  Engine engine{topo, options,
                options.interference_range > 0.0 ? options.interference_range
                                                 : topo.max_radius()};
  std::vector<PendingItem> items;
  items.reserve(topo.node_count());
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    PendingItem item;
    item.from = u;
    item.power_radius = radius;
    for (const graph::Neighbor& nb : topo.neighbors_within(u, radius))
      item.receivers.push_back(nb.id);
    if (!item.receivers.empty()) items.push_back(std::move(item));
  }
  return engine.run(std::move(items));
}

}  // namespace emst::mac
