#include "emst/nnt/kp_nnt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "emst/support/assert.hpp"
#include "emst/support/rng.hpp"

namespace emst::nnt {

KpNntResult run_kp_nnt(const sim::Topology& topo, const KpNntOptions& options) {
  const std::size_t n = topo.node_count();
  EMST_ASSERT(n >= 1);
  const double n_est =
      std::max(2.0, static_cast<double>(n) * options.n_estimate_factor);

  KpNntResult result;
  result.parent.assign(n, graph::kNoNode);
  // Random ranks: a seeded Fisher–Yates permutation (each node's "random
  // coin flips"); rank comparison is then a plain integer comparison.
  result.rank.resize(n);
  std::iota(result.rank.begin(), result.rank.end(), 0u);
  support::Rng rank_rng(options.rank_seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rank_rng.uniform_int(i);
    std::swap(result.rank[i - 1], result.rank[j]);
  }

  sim::EnergyMeter meter(options.pathloss);
  std::vector<graph::NodeId> unresolved(n);
  std::iota(unresolved.begin(), unresolved.end(), 0u);

  const double diameter = std::sqrt(2.0);
  // Without coordinates the search must be prepared to cover the whole
  // square: m = ⌈lg(2n)⌉ doubling rounds reach the diameter.
  const auto max_rounds = static_cast<std::size_t>(
      std::max(1.0, std::ceil(std::log2(2.0 * n_est))));
  for (std::size_t round = 1; !unresolved.empty(); ++round) {
    std::vector<graph::NodeId> still_unresolved;
    for (const graph::NodeId u : unresolved) {
      if (round > max_rounds) continue;  // top-ranked node: terminate
      const double radius = std::min(
          std::sqrt(std::pow(2.0, static_cast<double>(round)) / n_est),
          diameter);
      const std::vector<sim::NodeId> heard = topo.nodes_within(u, radius);
      meter.charge_broadcast(u, radius, heard.size());
      graph::NodeId best = graph::kNoNode;
      double best_d = 0.0;
      for (const sim::NodeId v : heard) {
        if (result.rank[v] <= result.rank[u]) continue;
        const double d = topo.distance(v, u);
        meter.charge_unicast(v, d);  // reply
        if (best == graph::kNoNode || d < best_d || (d == best_d && v < best)) {
          best = v;
          best_d = d;
        }
      }
      if (best == graph::kNoNode) {
        still_unresolved.push_back(u);
        continue;
      }
      meter.charge_unicast(u, best_d);  // connection
      result.parent[u] = best;
      result.tree.push_back(graph::Edge{u, best, best_d}.canonical());
      result.max_connect_distance =
          std::max(result.max_connect_distance, best_d);
      result.phases = std::max(result.phases, round);
    }
    meter.tick_rounds(3);
    unresolved = std::move(still_unresolved);
  }

  graph::sort_edges(result.tree);
  result.totals = meter.totals();
  result.fragments = n - result.tree.size();
  return result;
}

}  // namespace emst::nnt
