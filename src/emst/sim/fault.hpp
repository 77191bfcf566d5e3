// Fault injection for the simulator (docs/ROBUSTNESS.md).
//
// The paper's model (§II) assumes every transmission succeeds. Real sensor
// radios lose packets and whole nodes fail; this module is the departure
// point from the paper's reliable-delivery assumption. A `FaultModel`
// describes, deterministically from a seed:
//
//  - i.i.d. Bernoulli message loss (`loss`): every physical transmission is
//    dropped independently with this probability;
//  - per-link Gilbert–Elliott burst loss (`use_gilbert`): each directed link
//    carries a two-state Markov chain (Good/Bad) advanced once per
//    transmission on that link, with state-dependent loss probabilities —
//    the standard model for bursty wireless channels;
//  - scheduled node crash/recovery windows (`crashes`): a node is down for
//    every round r with `from <= r < until`; while down it neither sends
//    (its transmissions are suppressed, uncharged — a dead radio emits
//    nothing) nor receives (in-flight messages addressed to it are dropped
//    at delivery time).
//
// Energy accounting rule (the paper's cost model, applied honestly): a LOST
// message still charges the sender — the radio transmitted, the channel ate
// the packet. Only suppressed sends from crashed nodes are free.
//
// `FaultInjector` is the runtime: it owns the per-link Gilbert–Elliott
// states (in a FlatMap64, keyed by packed directed edge) and the fault
// clock. Channel fates are *counter-based*: the k-th physical transmission
// draws from an independent RNG stream derived from (seed, k) rather than
// from one shared sequential generator, so a fate depends only on k and
// its link's burst state, never on how many draws earlier fates consumed.
// Callers (`Network`, its test oracle `ReferenceNetwork`, the ARQ links,
// the sync-GHS driver) draw in global send order, so `drop` simply counts calls. Only
// the per-link burst chains are stateful, and per-link send order is
// preserved by every engine (FIFO links), so the chains advance
// identically too.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/graph/adjacency.hpp"
#include "emst/graph/edge.hpp"
#include "emst/support/flat_map.hpp"
#include "emst/support/rng.hpp"

namespace emst::sim {

class FaultController;  // chaos.hpp — adversarial, state-aware crash injection

/// `CrashWindow::until` value meaning "never recovers": permanent fail-stop.
inline constexpr std::uint64_t kCrashForever =
    std::numeric_limits<std::uint64_t>::max();

/// Node `node` is down for rounds [from, until). Overlapping windows for the
/// same node are allowed (union semantics); `until == from` is an empty
/// window (never down); `until == kCrashForever` is permanent fail-stop.
struct CrashWindow {
  graph::NodeId node = 0;
  std::uint64_t from = 0;
  std::uint64_t until = 0;
};

struct FaultModel {
  /// i.i.d. Bernoulli loss probability per physical transmission.
  double loss = 0.0;
  /// Enable the per-link Gilbert–Elliott chain (composes with `loss`: a
  /// message is dropped if EITHER mechanism fires).
  bool use_gilbert = false;
  double ge_good_to_bad = 0.05;  ///< P(Good→Bad) per transmission
  double ge_bad_to_good = 0.3;   ///< P(Bad→Good) per transmission
  double ge_loss_good = 0.0;     ///< loss probability while Good
  double ge_loss_bad = 0.8;      ///< loss probability while Bad
  std::vector<CrashWindow> crashes;
  /// Adversarial strategy (chaos.hpp) consulted as the fault clock advances;
  /// windows it injects behave exactly like entries of `crashes` and are
  /// recorded in `FaultInjector::injected_schedule()` so every adversarial
  /// run replays as a plain crash list. Non-owning; must outlive the run.
  FaultController* controller = nullptr;
  std::uint64_t seed = 0xFA011AULL;

  [[nodiscard]] bool enabled() const noexcept {
    return loss > 0.0 || use_gilbert || !crashes.empty() ||
           controller != nullptr;
  }
};

struct FaultStats {
  std::uint64_t lost = 0;           ///< dropped by the channel (charged)
  std::uint64_t dropped_crashed = 0;///< receiver down at delivery (charged)
  std::uint64_t suppressed = 0;     ///< sender down: no transmission (free)
};

/// Deterministic runtime for one FaultModel. Holds the fault clock (advanced
/// by whoever simulates time: `Network::collect_round` or the sync-GHS
/// driver's round ticks), the loss RNG, and per-link burst state. One
/// injector can span several protocol stages (EOPT shares one across Step 1,
/// the census and Step 2 so crash windows live on a single clock).
class FaultInjector {
 public:
  FaultInjector() = default;  ///< disabled: never drops, never crashes
  explicit FaultInjector(const FaultModel& model);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const FaultModel& model() const noexcept { return model_; }

  /// Fault clock. `advance_to` is monotone (never rewinds). With a chaos
  /// controller attached, every round the clock steps through consults it
  /// exactly once — always from the serial section that owns the clock
  /// (round barriers, driver ticks), so injection order is deterministic
  /// for every engine and thread count.
  void advance_to(std::uint64_t round) {
    if (model_.controller == nullptr) {
      if (round > round_) round_ = round;
      return;
    }
    while (round_ < round) {
      ++round_;
      poll_controller();
    }
  }
  void advance_rounds(std::uint64_t k) {
    if (model_.controller == nullptr) {
      round_ += k;
      return;
    }
    while (k-- > 0) {
      ++round_;
      poll_controller();
    }
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }

  // -- Chaos-controller runtime (chaos.hpp, docs/ROBUSTNESS.md) ------------

  /// Ambient deployment facts for the controller's ChaosView. Engines (and
  /// the meter-direct sync-GHS driver) set these once before the run.
  void set_chaos_env(std::size_t node_count,
                     std::span<const geometry::Point2> points) noexcept {
    chaos_nodes_ = node_count;
    chaos_points_ = points;
  }
  /// Drivers that maintain explicit fragment state publish it here whenever
  /// it changes (sync GHS republishes at every phase boundary). Spans must
  /// stay valid until the next publish; drivers without fragment state
  /// simply never call this and strategies degrade deterministically.
  void publish_fragments(std::span<const graph::NodeId> leaders,
                         std::span<const graph::Edge> tree) noexcept {
    chaos_leaders_ = leaders;
    chaos_tree_ = tree;
  }
  /// Mark the next controller consult as a protocol phase boundary.
  void note_phase_boundary() noexcept { at_phase_boundary_ = true; }
  /// Engines report the in-flight message count before advancing the clock.
  void set_in_flight(std::size_t n) noexcept { in_flight_ = n; }

  /// Apply a crash window at runtime. Controller injections land here; the
  /// window takes effect for every `crashed_at` query from now on.
  void add_crash_window(const CrashWindow& w);

  /// Every window the controller injected, in injection order. Feeding this
  /// list back as a plain `FaultModel::crashes` schedule (or through a
  /// `ReplaySchedule` controller) reproduces the adversarial run (tested).
  [[nodiscard]] const std::vector<CrashWindow>& injected_schedule()
      const noexcept {
    return injected_;
  }
  /// Injected windows not yet consumed by the telemetry emitter (engines
  /// emit one kCrashInject event per window at the round barrier).
  [[nodiscard]] std::span<const CrashWindow> take_new_injections() noexcept {
    const std::size_t first = injection_emit_cursor_;
    injection_emit_cursor_ = injected_.size();
    return std::span<const CrashWindow>(injected_).subspan(first);
  }

  /// Is `u` down at the current fault clock?
  [[nodiscard]] bool crashed(graph::NodeId u) const noexcept {
    return crashed_at(u, round_);
  }
  [[nodiscard]] bool crashed_at(graph::NodeId u,
                                std::uint64_t round) const noexcept;
  /// Is `u` down at every round >= the current clock? (Permanent loss —
  /// drivers may garbage-collect state for such nodes.)
  [[nodiscard]] bool crashed_forever(graph::NodeId u) const noexcept;

  /// Draw the channel fate of the next physical transmission u→v, in global
  /// send order (advances the internal message counter and the link's
  /// Gilbert–Elliott state). Returns true if the message is LOST. Does not
  /// consider crashes — callers check those separately because crash drops
  /// happen at delivery time, not send time.
  [[nodiscard]] bool drop(graph::NodeId u, graph::NodeId v) {
    if (!enabled_) return false;
    return drop_at(seq_++, u, v);
  }

  FaultStats& stats() noexcept { return stats_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

 private:
  /// Consult the controller for the round the clock just reached (fault.cpp
  /// — needs the ChaosView definition from chaos.hpp).
  void poll_controller();

  /// The fate of global transmission number `seq` on link u→v. Every draw
  /// comes from an RNG stream derived from (model seed, seq); the link's
  /// burst state is the only history it reads.
  [[nodiscard]] bool drop_at(std::uint64_t seq, graph::NodeId u,
                             graph::NodeId v);

  FaultModel model_;
  bool enabled_ = false;
  std::uint64_t seq_ = 0;  ///< global transmission counter (drop() calls)
  std::uint64_t round_ = 0;
  /// Per-directed-link Gilbert–Elliott state: key = (u<<32)|v (never 0 since
  /// u != v), value = 1 while Bad. Grows only — FlatMap64 territory.
  support::FlatMap64 ge_state_;
  /// Crash windows bucketed per node (built from the model; controller
  /// injections are appended at runtime; queried per message).
  std::vector<std::vector<CrashWindow>> windows_by_node_;
  std::uint32_t max_crash_node_ = 0;
  FaultStats stats_;
  // Chaos-controller state (all inert without a controller).
  std::size_t chaos_nodes_ = 0;
  std::span<const geometry::Point2> chaos_points_{};
  std::span<const graph::NodeId> chaos_leaders_{};
  std::span<const graph::Edge> chaos_tree_{};
  bool at_phase_boundary_ = false;
  std::size_t in_flight_ = 0;
  std::vector<CrashWindow> injected_;
  std::size_t injection_emit_cursor_ = 0;
  std::vector<CrashWindow> controller_scratch_;
};

}  // namespace emst::sim
