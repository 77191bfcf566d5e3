#include "emst/sim/chaos.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "emst/graph/mst.hpp"
#include "emst/sim/topology.hpp"

namespace emst::sim {
namespace {

/// Live node ids in ascending order — the deterministic candidate pool every
/// strategy draws from.
std::vector<graph::NodeId> live_nodes(const ChaosView& view) {
  std::vector<graph::NodeId> live;
  live.reserve(view.node_count);
  for (std::size_t u = 0; u < view.node_count; ++u) {
    const auto id = static_cast<graph::NodeId>(u);
    if (view.alive(id)) live.push_back(id);
  }
  return live;
}

bool cadence_fires(std::uint64_t round, std::uint64_t first,
                   std::uint64_t period) {
  if (round < first) return false;
  if (period == 0) return round == first;
  return (round - first) % period == 0;
}

}  // namespace

void KillLeader::on_round(const ChaosView& view,
                          std::vector<CrashWindow>& out) {
  if (!cadence_fires(view.round, first_, period_)) return;
  if (view.node_count == 0 || remaining_budget(view.node_count) < 1) return;
  graph::NodeId victim = graph::kNoNode;
  if (!view.leaders.empty()) {
    // Leader of the largest live fragment; ties go to the smaller leader id.
    std::vector<std::size_t> population(view.leaders.size(), 0);
    for (std::size_t u = 0; u < view.leaders.size(); ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      if (view.alive(id)) ++population[view.leaders[u]];
    }
    std::size_t best = 0;
    for (std::size_t leader = 0; leader < population.size(); ++leader) {
      const auto id = static_cast<graph::NodeId>(leader);
      if (population[leader] > best && view.alive(id)) {
        best = population[leader];
        victim = id;
      }
    }
  }
  if (victim == graph::kNoNode) {
    // No census published (or every leader already dead): behead the
    // deployment deterministically from the bottom of the id space.
    const std::vector<graph::NodeId> live = live_nodes(view);
    if (live.empty()) return;
    victim = live.front();
  }
  kill(view, victim, out);
}

void SeverCoreEdge::on_round(const ChaosView& view,
                             std::vector<CrashWindow>& out) {
  if (!cadence_fires(view.round, first_, period_)) return;
  if (view.node_count == 0 || remaining_budget(view.node_count) < 2) return;
  graph::NodeId a = graph::kNoNode;
  graph::NodeId b = graph::kNoNode;
  if (!view.tree.empty()) {
    // Minimum-weight fragment-tree edge whose endpoints are both still up:
    // the first edge any merge accepted, the structural core of its fragment.
    const graph::Edge* core = nullptr;
    for (const graph::Edge& e : view.tree) {
      if (!view.alive(e.u) || !view.alive(e.v)) continue;
      if (core == nullptr || graph::edge_less(e, *core)) core = &e;
    }
    if (core != nullptr) {
      a = core->u;
      b = core->v;
    }
  }
  if (a == graph::kNoNode) {
    const std::vector<graph::NodeId> live = live_nodes(view);
    if (live.size() < 2) return;
    a = live[0];
    b = live[1];
  }
  kill(view, a, out);
  kill(view, b, out);
}

void PartitionHalf::on_round(const ChaosView& view,
                             std::vector<CrashWindow>& out) {
  if (view.round != at_round_) return;
  if (view.node_count == 0) return;
  std::vector<graph::NodeId> victims = live_nodes(view);
  if (!view.points.empty()) {
    // Central separator strip: the nodes nearest the x = 0.5 line are the
    // cheapest vertex cut through a unit-square geometric deployment.
    std::sort(victims.begin(), victims.end(),
              [&](graph::NodeId lhs, graph::NodeId rhs) {
                const double dl = std::abs(view.points[lhs].x - 0.5);
                const double dr = std::abs(view.points[rhs].x - 0.5);
                if (dl != dr) return dl < dr;
                return lhs < rhs;
              });
  }
  const std::size_t budget = remaining_budget(view.node_count);
  if (victims.size() > budget) victims.resize(budget);
  for (graph::NodeId victim : victims) kill(view, victim, out);
}

void CrashWaveAtPhaseBoundary::on_round(const ChaosView& view,
                                        std::vector<CrashWindow>& out) {
  const bool fallback = fallback_period_ != 0 && view.round != 0 &&
                        view.round % fallback_period_ == 0;
  if (!view.at_phase_boundary && !fallback) return;
  if (view.node_count == 0) return;
  const std::vector<graph::NodeId> live = live_nodes(view);
  if (live.empty()) return;
  std::size_t budget = remaining_budget(view.node_count);
  graph::NodeId previous = graph::kNoNode;
  for (std::size_t i = 0; i < wave_ && budget > 0; ++i) {
    // Spread the wave across the live id space so one crash burst hits
    // several fragments at once.
    const graph::NodeId victim = live[i * live.size() / wave_];
    if (victim == previous) continue;  // tiny populations collapse indices
    kill(view, victim, out);
    previous = victim;
    --budget;
  }
}

ReplaySchedule::ReplaySchedule(std::vector<CrashWindow> schedule)
    : schedule_(std::move(schedule)) {
  std::sort(schedule_.begin(), schedule_.end(),
            [](const CrashWindow& a, const CrashWindow& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.node != b.node) return a.node < b.node;
              return a.until < b.until;
            });
}

void ReplaySchedule::on_round(const ChaosView& view,
                              std::vector<CrashWindow>& out) {
  while (cursor_ < schedule_.size() && schedule_[cursor_].from <= view.round) {
    out.push_back(schedule_[cursor_]);
    ++cursor_;
  }
}

std::unique_ptr<BudgetedController> make_controller(std::string_view name) {
  if (name == "kill_leader") return std::make_unique<KillLeader>();
  if (name == "sever_core_edge") return std::make_unique<SeverCoreEdge>();
  if (name == "partition_half") return std::make_unique<PartitionHalf>();
  if (name == "crash_wave")
    return std::make_unique<CrashWaveAtPhaseBoundary>();
  return nullptr;
}

std::span<const std::string_view> shipped_strategies() {
  static constexpr std::array<std::string_view, 4> kNames = {
      "kill_leader", "sever_core_edge", "partition_half", "crash_wave"};
  return kNames;
}

std::vector<CrashWindow> minimize_crashes(
    std::span<const CrashWindow> schedule,
    const std::function<bool(std::span<const CrashWindow>)>& trips) {
  std::vector<CrashWindow> current(schedule.begin(), schedule.end());
  if (!trips(current)) return {};
  // Zeller–Hildebrandt ddmin: try ever-finer subsets, then their
  // complements; terminates 1-minimal once granularity reaches |current|.
  std::size_t granularity = 2;
  while (current.size() >= 2) {
    const std::size_t chunk =
        std::max<std::size_t>(1, current.size() / granularity);
    bool reduced = false;
    for (std::size_t start = 0; start < current.size() && !reduced;
         start += chunk) {
      const std::size_t stop = std::min(start + chunk, current.size());
      std::vector<CrashWindow> subset(current.begin() + start,
                                      current.begin() + stop);
      if (subset.size() < current.size() && trips(subset)) {
        current = std::move(subset);
        granularity = 2;
        reduced = true;
      }
    }
    for (std::size_t start = 0; start < current.size() && !reduced;
         start += chunk) {
      const std::size_t stop = std::min(start + chunk, current.size());
      std::vector<CrashWindow> complement;
      complement.reserve(current.size() - (stop - start));
      complement.insert(complement.end(), current.begin(),
                        current.begin() + start);
      complement.insert(complement.end(), current.begin() + stop,
                        current.end());
      if (!complement.empty() && complement.size() < current.size() &&
          trips(complement)) {
        current = std::move(complement);
        granularity = std::max<std::size_t>(granularity - 1, 2);
        reduced = true;
      }
    }
    if (reduced) continue;
    if (granularity >= current.size()) break;
    granularity = std::min(current.size(), granularity * 2);
  }
  return current;
}

std::vector<char> alive_mask(std::size_t n,
                             std::span<const CrashWindow> crashes) {
  std::vector<char> alive(n, 1);
  for (const CrashWindow& w : crashes) {
    if (w.until == kCrashForever && w.node < n) alive[w.node] = 0;
  }
  return alive;
}

std::vector<graph::Edge> survivor_msf(const Topology& topo,
                                      const std::vector<char>& alive) {
  std::vector<graph::Edge> edges;
  for (const graph::Edge& e : topo.graph().edges()) {
    if (alive[e.u] && alive[e.v]) edges.push_back(e);
  }
  return graph::kruskal_msf(topo.node_count(), std::move(edges));
}

}  // namespace emst::sim
