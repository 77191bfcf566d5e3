// Adversarial fault strategies (docs/ROBUSTNESS.md).
//
// PR 2's `FaultModel` attacks the protocols blindly: Bernoulli coins and a
// crash schedule fixed before the run starts. A `FaultController` attacks
// them where they are weakest — it is consulted by the `FaultInjector` every
// time the fault clock advances, sees a read-only snapshot of live protocol
// state (`ChaosView`: round, awake set, fragment census, in-flight count),
// and answers with crash windows to inject *now*. Injections behave exactly
// like pre-scripted `FaultModel::crashes` entries and are recorded in
// `FaultInjector::injected_schedule()`, so every adversarial run collapses
// back to a plain, reproducible crash list (the `ReplaySchedule` strategy
// and the static-schedule equivalence test pin this).
//
// Determinism: the injector consults the controller only from the serial
// sections that own the fault clock (engine round barriers, the sync-GHS
// driver's ticks), with a view built from state that is itself
// bitwise-identical across engines and thread counts. A strategy that is a
// pure function of its view therefore injects the same schedule at 1, 2 and
// 4 threads — pinned by tests/chaos_test.cpp.
//
// Every shipped strategy kills permanently (`kCrashForever`, fail-stop) and
// respects a kill budget (default 20% of the deployment — the acceptance
// envelope under which all four drivers must stay exact on the surviving
// components). This is also the seam a future SINR interference model plugs
// into: a channel-quality controller is just a strategy that consults the
// same view (ROADMAP item 2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/graph/edge.hpp"
#include "emst/sim/fault.hpp"

namespace emst::sim {

class Topology;

/// Read-only snapshot of live protocol state, handed to the controller once
/// per fault-clock round. Spans reference engine/driver state that is stable
/// for the duration of the consult; copy anything you need to keep.
struct ChaosView {
  std::uint64_t round = 0;
  /// True on the first consult after the driver marked a phase boundary
  /// (`FaultInjector::note_phase_boundary`); always false for drivers
  /// without a phase structure.
  bool at_phase_boundary = false;
  std::size_t node_count = 0;
  /// Deployment coordinates (engines publish these at construction).
  std::span<const geometry::Point2> points{};
  /// Fragment census published by the driver (`proto::FragmentSet` leaders
  /// and tree edges). Empty for drivers that keep no explicit fragment
  /// state (classic GHS actors, Co-NNT) — strategies must degrade
  /// deterministically when it is.
  std::span<const graph::NodeId> leaders{};
  std::span<const graph::Edge> tree{};
  /// Messages routed but not yet delivered at this round's barrier.
  std::size_t in_flight = 0;
  const FaultInjector* injector = nullptr;

  /// Is `u` up at the current fault clock (crashes injected in earlier
  /// consults included)?
  [[nodiscard]] bool alive(graph::NodeId u) const {
    return injector == nullptr || !injector->crashed(u);
  }
};

/// Strategy interface the `FaultInjector` consults each round. Implementors
/// must be deterministic functions of the view and their own state, and must
/// not touch wall clocks or global RNGs — determinism across engines and
/// thread counts depends on it. One controller instance drives one run.
class FaultController {
 public:
  virtual ~FaultController() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Append crash windows to inject at this round. `window.from` is clamped
  /// up to the current round by the injector; `until == kCrashForever`
  /// means permanent fail-stop.
  virtual void on_round(const ChaosView& view,
                        std::vector<CrashWindow>& out) = 0;
};

/// Shared kill-budget bookkeeping: a strategy never crashes more than
/// `max_fraction` of the deployment. The default is the 20% fail-stop
/// envelope of the graceful-degradation contract (docs/ROBUSTNESS.md).
class BudgetedController : public FaultController {
 public:
  void set_max_fraction(double fraction) noexcept { max_fraction_ = fraction; }
  [[nodiscard]] std::size_t kills() const noexcept { return killed_; }

 protected:
  [[nodiscard]] std::size_t remaining_budget(std::size_t node_count) const {
    const auto cap = static_cast<std::size_t>(
        max_fraction_ * static_cast<double>(node_count));
    return cap > killed_ ? cap - killed_ : 0;
  }
  /// Emit one permanent kill of a live node and account for it.
  void kill(const ChaosView& view, graph::NodeId victim,
            std::vector<CrashWindow>& out) {
    out.push_back({victim, view.round, kCrashForever});
    ++killed_;
  }

  double max_fraction_ = 0.2;
  std::size_t killed_ = 0;
};

/// Kill the leader of the largest live fragment on a fixed cadence — the
/// worst single node to lose mid-merge (every in-flight INITIATE/REPORT
/// wave of that fragment dies with it). Without a published census it
/// degrades to killing the smallest live node id.
class KillLeader final : public BudgetedController {
 public:
  explicit KillLeader(std::uint64_t period = 8, std::uint64_t first = 8)
      : period_(period), first_(first) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "kill_leader";
  }
  void on_round(const ChaosView& view, std::vector<CrashWindow>& out) override;

 private:
  std::uint64_t period_;
  std::uint64_t first_;
};

/// Kill BOTH endpoints of the minimum-weight live fragment-tree edge — the
/// repository's edge order makes that the first-merged, core-most edge —
/// splitting an established fragment through its middle. Degrades to the
/// two smallest live ids when no tree is published.
class SeverCoreEdge final : public BudgetedController {
 public:
  explicit SeverCoreEdge(std::uint64_t period = 8, std::uint64_t first = 8)
      : period_(period), first_(first) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sever_core_edge";
  }
  void on_round(const ChaosView& view, std::vector<CrashWindow>& out) override;

 private:
  std::uint64_t period_;
  std::uint64_t first_;
};

/// One-shot separator attack: at `at_round`, crash the nodes closest to the
/// x = 0.5 line (budget-capped) — the cheapest cut that can disconnect a
/// random geometric deployment into two surviving halves. Degrades to the
/// smallest live ids when no coordinates are published.
class PartitionHalf final : public BudgetedController {
 public:
  explicit PartitionHalf(std::uint64_t at_round = 8) : at_round_(at_round) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "partition_half";
  }
  void on_round(const ChaosView& view, std::vector<CrashWindow>& out) override;

 private:
  std::uint64_t at_round_;
};

/// Crash a wave of nodes spread across the id space at every phase boundary
/// the driver marks — the moment fragment state is being rebuilt. Drivers
/// without phase marks fall back to a fixed round cadence.
class CrashWaveAtPhaseBoundary final : public BudgetedController {
 public:
  explicit CrashWaveAtPhaseBoundary(std::size_t wave = 2,
                                    std::uint64_t fallback_period = 16)
      : wave_(wave), fallback_period_(fallback_period) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "crash_wave";
  }
  void on_round(const ChaosView& view, std::vector<CrashWindow>& out) override;

 private:
  std::size_t wave_;
  std::uint64_t fallback_period_;
};

/// Replay a recorded schedule through the controller interface: each window
/// is injected at its `from` round. Feeding a run's `injected_schedule()`
/// back through this strategy — or as a plain `FaultModel::crashes` list —
/// reproduces the adversarial run bit-for-bit (tested).
class ReplaySchedule final : public FaultController {
 public:
  explicit ReplaySchedule(std::vector<CrashWindow> schedule);
  [[nodiscard]] std::string_view name() const noexcept override {
    return "replay";
  }
  void on_round(const ChaosView& view, std::vector<CrashWindow>& out) override;

 private:
  std::vector<CrashWindow> schedule_;  ///< sorted by (from, node)
  std::size_t cursor_ = 0;
};

/// Construct a shipped strategy by name ("kill_leader", "sever_core_edge",
/// "partition_half", "crash_wave") — the bench/CLI registry. Returns null
/// for unknown names.
[[nodiscard]] std::unique_ptr<BudgetedController> make_controller(
    std::string_view name);

/// Names of every shipped adversarial strategy, in campaign order.
[[nodiscard]] std::span<const std::string_view> shipped_strategies();

/// Delta-minimize a failing crash schedule (ddmin): returns a 1-minimal
/// sublist of `schedule` on which `trips` still returns true — removing any
/// single remaining window makes the failure disappear. `trips` must be
/// deterministic; it is called O(k·log k + k²/chunk) times. Returns an empty
/// list if the full schedule does not trip the predicate.
[[nodiscard]] std::vector<CrashWindow> minimize_crashes(
    std::span<const CrashWindow> schedule,
    const std::function<bool(std::span<const CrashWindow>)>& trips);

/// Per-node alive mask of a crash record: 0 for every node with a permanent
/// (`kCrashForever`) window, 1 for the rest.
[[nodiscard]] std::vector<char> alive_mask(
    std::size_t n, std::span<const CrashWindow> crashes);

/// The fail-stop contract answer of the MST drivers (docs/ROBUSTNESS.md):
/// Kruskal's MSF over the edges of `topo` with both endpoints alive.
[[nodiscard]] std::vector<graph::Edge> survivor_msf(
    const Topology& topo, const std::vector<char>& alive);

}  // namespace emst::sim
