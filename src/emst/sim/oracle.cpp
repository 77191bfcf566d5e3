#include "emst/sim/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "emst/sim/run_config.hpp"

namespace emst::sim {
namespace {

/// Minimal union-find for the fragment-forest check (path halving, union by
/// index — determinism matters more than asymptotics at oracle cadence).
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Returns false when x and y were already connected (a cycle).
  bool unite(std::size_t x, std::size_t y) {
    const std::size_t rx = find(x);
    const std::size_t ry = find(y);
    if (rx == ry) return false;
    parent_[rx < ry ? ry : rx] = rx < ry ? rx : ry;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

std::string format(const char* fmt, auto... args) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer), fmt, args...);
  return std::string(buffer);
}

/// |a - b| within `rel_tol` of max(|b|, 1): the two sides sum the same
/// charges in different orders.
bool energy_close(double a, double b, double rel_tol) {
  return std::abs(a - b) <= rel_tol * std::max(std::abs(b), 1.0);
}

/// Conservation across a breakdown matrix: the per-phase row sums
/// (phase_total — THE definition every consumer derives from) must
/// reassemble the totals, energy within tolerance, message and round counts
/// exactly. Returns the first disagreement, or an empty string.
std::string breakdown_mismatch(const EnergyBreakdown& matrix,
                               const Accounting& totals, double rel_tol) {
  Accounting rows;
  for (std::size_t p = 0; p < EnergyBreakdown::kPhases; ++p)
    rows += matrix.phase_total(static_cast<PhaseTag>(p));
  if (!energy_close(rows.energy, totals.energy, rel_tol)) {
    return format("breakdown row sums %.17g != meter total %.17g",
                  rows.energy, totals.energy);
  }
  const auto ull = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  if (rows.unicasts != totals.unicasts ||
      rows.broadcasts != totals.broadcasts || rows.rounds != totals.rounds) {
    return format("breakdown %llu+%llu msgs, %llu rounds != totals %llu+%llu "
                  "msgs, %llu rounds",
                  ull(rows.unicasts), ull(rows.broadcasts), ull(rows.rounds),
                  ull(totals.unicasts), ull(totals.broadcasts),
                  ull(totals.rounds));
  }
  return {};
}

}  // namespace

bool consistent(const RunResult& run, std::size_t n, std::string* why) {
  const double tol = OracleOptions{}.energy_rel_tol;
  const std::vector<double>& ledger = run.per_node_energy;
  const double ledger_sum = std::accumulate(ledger.begin(), ledger.end(), 0.0);
  std::string found;
  if (!ledger.empty() && (ledger.size() != n ||
                          !energy_close(ledger_sum, run.totals.energy, tol))) {
    found = format("per-node ledger of %zu nodes sums to %.17g, totals to "
                   "%.17g, over %zu nodes",
                   ledger.size(), ledger_sum, run.totals.energy, n);
  } else if (run.breakdown_recorded) {
    found = breakdown_mismatch(run.breakdown, run.totals, tol);
  }
  if (found.empty() && run.fragments + run.tree.size() != n) {
    found = format("%zu fragments and %zu tree edges over %zu nodes",
                   run.fragments, run.tree.size(), n);
  }
  if (why != nullptr) *why = found;
  return found.empty();
}

void InvariantOracle::note(std::string_view invariant, std::uint64_t round,
                           std::string detail, EnergyMeter* meter) {
  violations_.push_back({std::string(invariant), round, std::move(detail)});
  if (meter != nullptr) {
    // Mirror the violation into the trace so offline tooling sees it at the
    // exact round it fired. Oracle events carry no frame: zero the ambient
    // wire-size context for the stamp, like round ticks do.
    const std::uint32_t ambient_bits = meter->bits();
    meter->clear_bits();
    meter->note_event(EventType::kOracleViolation, kNoEventNode, kNoEventNode,
                      0.0, violations_.size());
    meter->set_bits(ambient_bits);
  }
}

void InvariantOracle::on_round(std::uint64_t round, EnergyMeter& meter) {
  if (options_.max_rounds != 0 && round > options_.max_rounds &&
      !liveness_tripped_) {
    liveness_tripped_ = true;
    note("liveness", round,
         format("round %llu exceeds the %llu-round liveness bound",
                static_cast<unsigned long long>(round),
                static_cast<unsigned long long>(options_.max_rounds)),
         &meter);
  }
  if (!options_.check_energy || !meter.breakdown_enabled()) return;
  std::string mismatch = breakdown_mismatch(meter.breakdown(), meter.totals(),
                                            options_.energy_rel_tol);
  if (!mismatch.empty()) note("energy", round, std::move(mismatch), &meter);
}

void InvariantOracle::check_fragments(std::uint64_t round,
                                      std::span<const graph::NodeId> leaders,
                                      std::span<const graph::Edge> tree,
                                      EnergyMeter* meter) {
  if (!options_.check_fragments || leaders.empty()) return;
  const std::size_t n = leaders.size();
  Dsu dsu(n);
  for (const graph::Edge& e : tree) {
    if (e.u >= n || e.v >= n) {
      note("fragments", round,
           format("tree edge (%u,%u) references nodes outside [0,%zu)", e.u,
                  e.v, n),
           meter);
      return;
    }
    if (!dsu.unite(e.u, e.v)) {
      note("fragments", round,
           format("tree edge (%u,%u) closes a cycle in the fragment forest",
                  e.u, e.v),
           meter);
      return;
    }
  }
  // Leader labelling must agree with tree connectivity: every node carries
  // the same leader as its component, and that leader lives in the
  // component (so fragments have exactly one leader each).
  for (std::size_t u = 0; u < n; ++u) {
    const graph::NodeId leader = leaders[u];
    if (leader >= n) {
      note("fragments", round,
           format("node %zu has out-of-range leader %u", u, leader), meter);
      return;
    }
    const std::size_t root = dsu.find(u);
    if (leader != leaders[root] || dsu.find(leader) != root) {
      note("fragments", round,
           format("node %zu (leader %u) disagrees with its component "
                  "(root %zu, leader %u)",
                  u, leader, root, leaders[root]),
           meter);
      return;
    }
  }
}

void InvariantOracle::check_energy_deep(std::uint64_t round,
                                        EnergyMeter& meter) {
  if (!options_.check_energy) return;
  const std::vector<double>& ledger = meter.per_node();
  const Telemetry* telemetry = meter.telemetry();
  if (ledger.empty() || telemetry == nullptr || !telemetry->aggregating())
    return;
  const std::vector<double>& aggregate = telemetry->aggregate().node_energy;
  if (aggregate.size() != ledger.size()) {
    note("energy", round,
         format("telemetry aggregate tracks %zu nodes, meter ledger %zu",
                aggregate.size(), ledger.size()),
         &meter);
    return;
  }
  // Both arrays fold the identical per-charge cost sequence in charge order,
  // so they must agree bitwise — any drift means a charge bypassed the
  // meter chokepoint (or telemetry saw an event the meter never charged).
  for (std::size_t u = 0; u < ledger.size(); ++u) {
    if (ledger[u] != aggregate[u]) {
      note("energy", round,
           format("node %zu: meter ledger %.17g != telemetry aggregate %.17g",
                  u, ledger[u], aggregate[u]),
           &meter);
      return;
    }
  }
}

}  // namespace emst::sim
