// Shared run configuration and result (docs/API_TOUR.md).
//
// `RunConfig` holds the knobs every driver shares — path loss, faults, ARQ,
// ledgers, telemetry, oracle — in one place: each driver takes it second,
// next to a plain struct of its own tuning knobs. `RunResult` is its output
// twin: the measures the paper compares every algorithm on (energy,
// messages, rounds; §II) plus the tree, fault and ARQ counters and placement
// witnesses. The owner of a run's meter and fault session configures the one
// (`configure`) and fills the result from both (`fill_from`); engines and
// stages never copy them, so ledger, breakdown and totals agree
// (`sim::consistent`). `emst::run` returns the result unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "emst/geometry/pathloss.hpp"
#include "emst/graph/edge.hpp"
#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/reliable.hpp"
#include "emst/sim/telemetry.hpp"

namespace emst::sim {

class InvariantOracle;  // oracle.hpp — runtime invariant checks

struct RunConfig {
  /// Energy cost model d^α (paper §II).
  geometry::PathLoss pathloss{};
  /// Message-loss / crash schedule (plus an optional chaos controller,
  /// chaos.hpp). `faults.enabled()` gates all fault-path work; a default
  /// model costs nothing. Classic GHS and Co-NNT accept crash-only models
  /// (fail-stop, survived by epoch restart — docs/ROBUSTNESS.md) and reject
  /// message-loss faults, which need the ARQ machinery they don't speak.
  FaultModel faults{};
  /// Stop-and-wait ARQ on logical unicasts (sync GHS / EOPT / census only).
  ArqOptions arq{};
  /// Maintain the per-node transmit-energy ledger (network-lifetime bound).
  bool track_per_node_energy = false;
  /// Accumulate the per-phase × per-kind EnergyBreakdown matrix.
  bool record_breakdown = false;
  /// Optional event hub; configure its sink/aggregation BEFORE the run (the
  /// meter snapshots activity at attach time). Null or inert = zero cost.
  Telemetry* telemetry = nullptr;
  /// Optional runtime invariant oracle (oracle.hpp): engines and drivers
  /// call its hooks at round/phase barriers. Null = zero cost (one pointer
  /// test per barrier); violations are recorded, never thrown.
  InvariantOracle* oracle = nullptr;
  /// Worker threads for the meter-direct drivers' pure-compute stages: the
  /// sync-GHS / EOPT fragment views and the choreographed Co-NNT probe
  /// precompute run under `support::parallel_for` at this width. 0 or 1 =
  /// single-threaded. The engine-driven drivers (classic GHS, the Co-NNT
  /// actor) ignore it. Results are bitwise-identical across thread counts
  /// (docs/PERF.md).
  std::size_t threads = 0;
  /// Worker PROCESSES for the run. 0 (default) = in-process engines. Any
  /// value >= 1 makes the engine-driven drivers (classic GHS, the Co-NNT
  /// actor) run over `sim::DistributedNetwork` with that many forked rank
  /// processes and a real serialized wire; results are bitwise-identical to
  /// the serial engine at every rank count (docs/DISTRIBUTED.md). The
  /// choreographed drivers (sync GHS, EOPT) are meter-direct — no network
  /// engine — so ranks is a documented no-op for them, as `threads` is for
  /// the engine-driven ones.
  std::size_t ranks = 0;

  /// Turn on the ledgers asked for and attach the hub, before any charge.
  void configure(EnergyMeter& meter, std::size_t n) const {
    if (track_per_node_energy) meter.enable_per_node(n);
    if (record_breakdown) meter.enable_breakdown();
    meter.attach_telemetry(telemetry);
  }
};

/// One driver run's result. Classic GHS returns it as is; sync GHS and EOPT
/// nest it as `run` next to their stage detail; Co-NNT and KP-NNT extend it
/// with their parent arrays.
struct RunResult {
  std::vector<graph::Edge> tree;  ///< canonical order
  Accounting totals;              ///< energy / messages / rounds
  /// Phases (sync GHS; EOPT sums both steps), the highest fragment level
  /// (classic GHS) or the deepest doubling round (Co-NNT, KP-NNT).
  std::size_t phases = 0;
  std::size_t fragments = 0;  ///< final fragment count (1 iff spanning)
  FaultStats faults;          ///< fault-layer drop counters (0 when off)
  ArqStats arq;               ///< ARQ traffic (sync GHS / EOPT; 0 when off)
  /// Per-node transmit-energy ledger, empty unless `track_per_node_energy`
  /// was set; its max element is the network-lifetime bound.
  std::vector<double> per_node_energy;
  /// Per-phase × per-kind matrix, valid iff `breakdown_recorded` (set by
  /// `record_breakdown`; EOPT always records it, for its stage shares).
  EnergyBreakdown breakdown;
  bool breakdown_recorded = false;
  /// Fault mode stopped a sync-GHS / EOPT stage at its phase cap: `tree` is
  /// then a partial forest rather than the full MST.
  bool hit_phase_cap = false;
  /// Protocol epochs executed. Fail-stop drivers (classic GHS, the Co-NNT
  /// actor) restart among the survivors when a crash invalidates the running
  /// epoch (docs/ROBUSTNESS.md); 1 = the run finished without a restart.
  std::size_t epochs = 1;
  /// Crash windows a chaos controller injected, in injection order:
  /// replaying them as a static `FaultModel::crashes` list reproduces the
  /// adversarial run.
  std::vector<CrashWindow> injected_crashes;
  /// Execution-placement witnesses (docs/DISTRIBUTED.md §2): node-actor
  /// handler executions in this process vs the sum shipped home by forked
  /// rank processes. The actor-backed drivers (classic GHS, the Co-NNT actor)
  /// fill exactly one of the two, and their sum is the same in every
  /// placement; the choreographed drivers have no actor and leave both 0. A
  /// deferred delivery re-parked without a handler call is not an execution.
  std::uint64_t handler_invocations = 0;
  std::uint64_t rank_handler_invocations = 0;

  /// `totals`, `per_node_energy` and the breakdown, from the finished meter.
  void fill_from(const EnergyMeter& meter) {
    totals = meter.totals();
    per_node_energy = meter.per_node();
    breakdown_recorded = meter.breakdown_enabled();
    if (breakdown_recorded) breakdown = meter.breakdown();
  }
  /// `faults` and `injected_crashes`, from the run's fault session.
  void fill_from(const FaultInjector& session) {
    faults = session.stats();
    injected_crashes = session.injected_schedule();
  }
};

}  // namespace emst::sim
