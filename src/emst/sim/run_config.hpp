// Shared run configuration (docs/API_TOUR.md).
//
// The four algorithm drivers (sync GHS, EOPT, classic GHS, Co-NNT) used to
// carry their own copies of the same knobs — path loss, fault model, ARQ,
// per-node tracking — and benches/CLI special-cased each. `RunConfig` is the
// common base every options struct embeds (by inheritance, so existing
// `options.pathloss = ...` field access compiles unchanged), and the single
// place a caller wires telemetry into a run.
#pragma once

#include "emst/geometry/pathloss.hpp"
#include "emst/sim/fault.hpp"
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
};

}  // namespace emst::sim
