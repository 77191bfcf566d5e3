// The unified run facade (docs/API_TOUR.md).
//
// One entry point for every algorithm: pick a driver with `emst::Driver`,
// set the shared `sim::RunConfig` knobs once on `emst::RunConfig`, and call
// `emst::run`. The facade dispatches straight to the per-driver entry
// points and returns the `sim::RunResult` each driver fills, so results are
// pinned field-for-field identical to direct calls
// (tests/run_facade_test.cpp); telemetry, faults, ARQ, the invariant
// oracle and worker threads all compose through the one shared config.
//
//   emst::Instance inst = emst::sample_instance(2000, /*seed=*/7);
//   emst::RunConfig cfg;
//   cfg.driver = emst::Driver::kEopt;
//   cfg.faults.loss = 0.1;
//   cfg.arq.enabled = true;
//   emst::RunResult res = emst::run(inst, cfg);
//
// The `Instance` overload picks the topology backend itself: it always
// builds the memory-lean `sim::ImplicitTopology`, and the drivers that run
// on the network engine (classic GHS, the Co-NNT actor) build the CSR of
// the same points and radius from it. Results are bitwise the same on both
// backends (docs/PERF.md). Callers that already hold a topology (benches
// that sweep radii, `emst_cli`, perfbench) use the topology overloads.
//
// `emst::run` is the uniform API; the drivers (`ghs::run_classic_ghs`,
// `ghs::run_sync_ghs`, `eopt::run_eopt`, `nnt::run_connt`) are the
// full-detail API. Call a driver directly for what only its own result or
// signature carries: EOPT's per-stage accountings and giant size, sync
// GHS's fragment trajectory, Co-NNT's `parent` array and
// `max_connect_distance`, and seed forests. Each takes `(topo, cfg, tuning)`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/sim/implicit_topology.hpp"
#include "emst/sim/run_config.hpp"
#include "emst/sim/topology.hpp"

namespace emst {

/// Every algorithm the facade can dispatch, including the named variants
/// the CLI exposes (`--algo=` spellings in comments).
enum class Driver {
  kClassicGhs,        ///< "ghs"        — 1983 protocol, TEST/ACCEPT/REJECT
  kClassicGhsCached,  ///< "ghs-cached" — classic with the §V-A cache
  kSyncGhs,           ///< "sync"       — phase-synchronous modified GHS
  kSyncGhsProbe,      ///< "sync-probe" — phase-synchronous, probe flavour
  kEopt,              ///< "eopt"       — the paper's two-step algorithm
  kCoNnt,             ///< "connt"      — coordinate NNT, diagonal ranks
  kCoNntAxis,         ///< "connt-axis" — coordinate NNT, axis ranks
};

/// CLI spelling of a driver ("ghs", "sync-probe", ...).
[[nodiscard]] const char* driver_name(Driver driver) noexcept;

/// Parse a CLI spelling; returns false (and leaves `out` untouched) for
/// unknown names.
[[nodiscard]] bool parse_driver(const std::string& name, Driver& out) noexcept;

/// The driver variant that will actually execute under `cfg`: the Co-NNT
/// drivers silently dispatch to their node-actor implementation whenever
/// faults are enabled or ranks are requested (`nnt::runs_actor`, the rule
/// inside `nnt::run_connt`), so the resolved spelling becomes "connt-actor" /
/// "connt-axis-actor" there; every other driver resolves to its plain
/// `driver_name` spelling. Trace headers record this so offline tooling can
/// tell which implementation produced a stream (sim::check_trace).
[[nodiscard]] const char* resolved_driver_name(Driver driver,
                                               const sim::RunConfig& cfg) noexcept;

/// Whether the driver speaks message loss + ARQ (docs/ROBUSTNESS.md):
/// classic GHS and Co-NNT survive crash-only fault models by epoch restart
/// but have no loss recovery.
[[nodiscard]] bool driver_supports_loss(Driver driver) noexcept;

/// A deployment the facade can build a topology from: points plus the
/// radius policy. `sample_instance` covers the common "n uniform points at
/// the connectivity radius" case.
struct Instance {
  std::vector<geometry::Point2> points;
  /// Maximum transmission radius. <= 0 → derive from `radius_factor`:
  /// the connectivity radius factor·√(ln n / n) (rgg/radii.hpp) — except
  /// for the EOPT driver, whose topology is built at its own r₂ =
  /// step2_factor·√(ln n / n) exactly as `eopt::eopt_topology` does.
  double radius = 0.0;
  double radius_factor = 1.6;
};

/// n uniform points (geometry::uniform_points, stream-seeded like the CLI).
[[nodiscard]] Instance sample_instance(std::size_t n, std::uint64_t seed,
                                       double radius_factor = 1.6);

/// Facade configuration: the shared `sim::RunConfig` knobs, set once and
/// passed as the driver's `cfg`, plus the driver selector and per-driver
/// tuning. Only the struct matching `driver` is passed, with its `moe`,
/// `neighbor_cache` or `scheme` set from `driver`.
struct RunConfig : sim::RunConfig {
  Driver driver = Driver::kEopt;
  eopt::EoptOptions eopt{};
  ghs::SyncGhsOptions sync{};
  ghs::ClassicGhsOptions classic{};
  nnt::CoNntOptions connt{};
};

/// Convenience: a default-knob RunConfig for `driver` — the benches' common
/// "just run this algorithm" case in one expression.
[[nodiscard]] inline RunConfig config_for(Driver driver) {
  RunConfig cfg;
  cfg.driver = driver;
  return cfg;
}

/// The facade's result: the one shape every driver returns
/// (sim/run_config.hpp).
using RunResult = sim::RunResult;

/// Run `cfg.driver` on a caller-owned topology backend. Defined in run.cpp
/// and explicitly instantiated for `sim::Topology` and
/// `sim::ImplicitTopology`. Classic GHS keeps Θ(m) per-edge state and runs
/// on the CSR only: given a `sim::ImplicitTopology`, the facade builds the
/// CSR from the same points and radius and runs there, with bitwise the
/// same result. `nnt::run_connt` does the same for the Co-NNT actor. An
/// attached oracle records a result that disagrees with itself
/// (`sim::consistent`) as a "result" violation.
template <typename Topo>
[[nodiscard]] RunResult run(const Topo& topo, const RunConfig& cfg = {});

/// Build the `sim::ImplicitTopology` of `inst` and run on it.
[[nodiscard]] RunResult run(const Instance& inst, const RunConfig& cfg = {});

}  // namespace emst
