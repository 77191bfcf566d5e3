// Runtime invariant oracle (docs/ROBUSTNESS.md).
//
// The chaos layer (chaos.hpp) attacks the protocols; this module certifies
// that they stay *structurally sound* while it happens — not just that the
// final answer is right, but that no intermediate state was ever corrupt.
// An `InvariantOracle` is attached through `RunConfig::oracle` and checked
// from two kinds of hooks:
//
//  - engine hooks, called serially at every round barrier (`Network`,
//    `DistributedNetwork` — and the meter-direct sync-GHS driver at its
//    ticks): bounded-rounds liveness and
//    meter-internal energy conservation (breakdown row sums vs the
//    Accounting total);
//  - driver hooks, called at phase boundaries where richer state exists:
//    fragment-forest acyclicity + DSU/leader agreement over the published
//    census, and the deep meter-vs-telemetry ledger check (the per-node
//    energy array and the telemetry aggregate accumulate the *same* cost
//    sequence in the *same* order, so they must agree bitwise — any
//    divergence means a charge bypassed the chokepoint).
//
// Cost model: zero when off. Every hook site tests one pointer; with no
// oracle attached the engines' round barriers are byte-for-byte the code
// they were before this module existed (the determinism suites pin that the
// outputs stay bitwise identical).
//
// Violations are *recorded*, not thrown: the run completes, `ok()` answers,
// and each violation is mirrored as a `kOracleViolation` telemetry event.
// That makes "does this crash schedule trip an invariant?" a deterministic
// predicate — exactly what `sim::minimize_crashes` (chaos.hpp) needs to
// delta-minimize a failing schedule to its smallest reproducing crash list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "emst/graph/edge.hpp"
#include "emst/sim/meter.hpp"

namespace emst::sim {

struct RunResult;  // run_config.hpp

/// Whether a finished run's result over n nodes agrees with itself: a filled
/// per-node ledger has n entries summing to `totals.energy`, a recorded
/// breakdown's rows sum to `totals` (as `on_round` checks), and `fragments
/// == n - tree.size()`. `why`, if given, names the first disagreement.
[[nodiscard]] bool consistent(const RunResult& run, std::size_t n,
                              std::string* why = nullptr);

struct OracleOptions {
  bool check_energy = true;     ///< breakdown/ledger conservation checks
  bool check_fragments = true;  ///< forest acyclicity + leader agreement
  /// Liveness bound: a fault-free run must finish within this many rounds;
  /// 0 disables the bound. Calibrate per deployment (tests use a small
  /// multiple of the fault-free round count).
  std::uint64_t max_rounds = 0;
  /// Relative tolerance for the breakdown-vs-totals energy comparison (the
  /// two sides sum the same charges in different orders; `consistent` uses
  /// the default).
  double energy_rel_tol = 1e-9;
};

struct OracleViolation {
  /// "liveness", "energy", "fragments", or the name a caller passed to note()
  std::string invariant;
  std::uint64_t round = 0;
  std::string detail;
};

class InvariantOracle {
 public:
  InvariantOracle() = default;
  explicit InvariantOracle(OracleOptions options) : options_(options) {}

  /// Engine hook — serial, at the round barrier, after the clock advanced.
  /// Cheap: the liveness bound and, when the meter carries a breakdown, the
  /// row-sum conservation check `consistent` also applies.
  void on_round(std::uint64_t round, EnergyMeter& meter);

  /// Driver hook — the published fragment census must be a forest whose
  /// leader labelling agrees with its connectivity: no tree cycle, every
  /// node's leader in its own component, one leader per component.
  void check_fragments(std::uint64_t round,
                       std::span<const graph::NodeId> leaders,
                       std::span<const graph::Edge> tree,
                       EnergyMeter* meter = nullptr);

  /// Driver hook — O(n) meter-vs-telemetry conservation: when both the
  /// per-node ledger and the telemetry aggregate are enabled they must agree
  /// bitwise per node (identical charge sequences, identical order).
  void check_energy_deep(std::uint64_t round, EnergyMeter& meter);

  /// Record a violation found outside the built-in checks (drivers use this
  /// for the per-component exactness contract).
  void note(std::string_view invariant, std::uint64_t round,
            std::string detail, EnergyMeter* meter = nullptr);

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<OracleViolation>& violations()
      const noexcept {
    return violations_;
  }
  [[nodiscard]] const OracleOptions& options() const noexcept {
    return options_;
  }

 private:
  OracleOptions options_{};
  std::vector<OracleViolation> violations_;
  bool liveness_tripped_ = false;
};

}  // namespace emst::sim
