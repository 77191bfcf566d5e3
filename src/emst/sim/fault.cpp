#include "emst/sim/fault.hpp"

#include <algorithm>
#include <limits>

#include "emst/sim/chaos.hpp"

namespace emst::sim {

FaultInjector::FaultInjector(const FaultModel& model)
    : model_(model), enabled_(model.enabled()) {
  for (const CrashWindow& w : model_.crashes)
    max_crash_node_ = std::max(max_crash_node_, w.node);
  if (!model_.crashes.empty()) {
    windows_by_node_.resize(static_cast<std::size_t>(max_crash_node_) + 1);
    for (const CrashWindow& w : model_.crashes)
      windows_by_node_[w.node].push_back(w);
  }
}

bool FaultInjector::crashed_at(graph::NodeId u,
                               std::uint64_t round) const noexcept {
  if (u >= windows_by_node_.size()) return false;
  for (const CrashWindow& w : windows_by_node_[u]) {
    if (w.from <= round && round < w.until) return true;
  }
  return false;
}

bool FaultInjector::crashed_forever(graph::NodeId u) const noexcept {
  if (u >= windows_by_node_.size()) return false;
  for (const CrashWindow& w : windows_by_node_[u]) {
    if (w.from <= round_ && w.until == std::numeric_limits<std::uint64_t>::max())
      return true;
  }
  return false;
}

void FaultInjector::add_crash_window(const CrashWindow& w) {
  if (w.node >= windows_by_node_.size())
    windows_by_node_.resize(static_cast<std::size_t>(w.node) + 1);
  max_crash_node_ = std::max(max_crash_node_, w.node);
  windows_by_node_[w.node].push_back(w);
}

void FaultInjector::poll_controller() {
  FaultController* controller = model_.controller;
  if (controller == nullptr) return;
  ChaosView view;
  view.round = round_;
  view.at_phase_boundary = at_phase_boundary_;
  at_phase_boundary_ = false;
  view.node_count = chaos_nodes_;
  view.points = chaos_points_;
  view.leaders = chaos_leaders_;
  view.tree = chaos_tree_;
  view.in_flight = in_flight_;
  view.injector = this;
  controller_scratch_.clear();
  controller->on_round(view, controller_scratch_);
  for (CrashWindow w : controller_scratch_) {
    // An injected window starts no earlier than the round it was injected
    // in — the past already happened — and applies to real nodes only.
    if (chaos_nodes_ != 0 && w.node >= chaos_nodes_) continue;
    w.from = std::max(w.from, round_);
    if (w.until <= w.from) continue;
    add_crash_window(w);
    injected_.push_back(w);
  }
}

bool FaultInjector::drop_at(std::uint64_t seq, graph::NodeId u,
                            graph::NodeId v) {
  // Per-message stream: every draw this transmission needs comes from an
  // independent generator keyed by (seed, seq). No draw here reads or
  // advances shared RNG state, so the fate of transmission k is a pure
  // function of (model, k, link burst state).
  support::Rng draw(support::Rng::stream_seed(model_.seed, seq));
  bool lost = false;
  if (model_.loss > 0.0) lost = draw.uniform() < model_.loss;
  if (model_.use_gilbert) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
    const auto slot = ge_state_.find_or_insert(key, 0);  // links start Good
    const bool bad = *slot.value != 0;
    const double p_loss = bad ? model_.ge_loss_bad : model_.ge_loss_good;
    if (p_loss > 0.0 && draw.uniform() < p_loss) lost = true;
    // Advance the chain once per transmission on this link.
    const double p_flip = bad ? model_.ge_bad_to_good : model_.ge_good_to_bad;
    if (p_flip > 0.0 && draw.uniform() < p_flip) *slot.value = bad ? 0 : 1;
  }
  return lost;
}

}  // namespace emst::sim
