// Chaos campaign: adversarial crash strategies vs every driver
// (docs/ROBUSTNESS.md).
//
// For each driver (EOPT, single-phase GHS, classic GHS, Co-NNT) and each
// shipped chaos strategy (kill_leader, sever_core_edge, partition_half,
// crash_wave) the campaign runs `trials` seeded fields with the adversarial
// fault controller attached and the invariant oracle on, then reports:
//
//   survival  — fraction of nodes still alive at termination (the strategies
//               kill permanently, budget-capped at 20% of n);
//   exact     — fraction of trials whose output matched the survivor-subgraph
//               recomputation (Kruskal MSF over the edges with both endpoints
//               alive; for Co-NNT the nearest higher-ranked surviving node
//               within the protocol's doubling-radius cap). The fail-stop
//               contract says this must be 1.0 — enforced by
//               scripts/validate_bench.py on the tracked BENCH_chaos.json;
//   overhead  — energy vs the same driver's fault-free run on the same field
//               (the price of crash repair / epoch restarts);
//   kills     — mean nodes the strategy killed;
//   oracle_violations — runtime invariant failures (must stay 0).
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/nnt/rank.hpp"
#include "emst/sim/chaos.hpp"
#include "emst/sim/oracle.hpp"
#include "emst/run.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/json.hpp"
#include "emst/support/rng.hpp"
#include "emst/support/stats.hpp"
#include "emst/support/table.hpp"

namespace {

using namespace emst;

constexpr std::array<std::string_view, 4> kDrivers = {
    "eopt", "sync_ghs", "classic_ghs", "connt"};

/// One chaos run: output tree/parents + accounting + the crash record.
struct RunOut {
  std::vector<graph::Edge> tree;
  std::vector<graph::NodeId> parent;  ///< connt only
  double energy = 0.0;
  std::vector<sim::CrashWindow> injected;
  std::size_t kills = 0;
  std::size_t epochs = 1;
};

RunOut run_driver(std::string_view driver, const sim::Topology& topo,
                  sim::FaultController* controller, std::uint64_t fault_seed,
                  sim::InvariantOracle* oracle) {
  sim::FaultModel faults;
  faults.controller = controller;
  faults.seed = fault_seed;
  RunOut out;
  if (driver == "eopt" || driver == "sync_ghs" || driver == "classic_ghs") {
    emst::RunConfig cfg = emst::config_for(
        driver == "eopt" ? emst::Driver::kEopt
        : driver == "sync_ghs" ? emst::Driver::kSyncGhs
                               : emst::Driver::kClassicGhs);
    cfg.faults = faults;
    cfg.oracle = oracle;
    emst::RunResult res = emst::run(topo, cfg);
    out.tree = std::move(res.tree);
    out.energy = res.totals.energy;
    out.injected = std::move(res.injected_crashes);
    out.epochs = res.epochs;
  } else {
    sim::RunConfig cfg;
    cfg.faults = faults;
    cfg.oracle = oracle;
    auto res = nnt::run_connt(topo, cfg);
    out.tree = std::move(res.tree);
    out.parent = std::move(res.parent);
    out.energy = res.totals.energy;
    out.injected = std::move(res.injected_crashes);
    out.epochs = res.epochs;
  }
  return out;
}

double baseline_energy(std::string_view driver, const sim::Topology& topo) {
  if (driver == "eopt")
    return emst::run(topo, emst::config_for(emst::Driver::kEopt)).totals.energy;
  if (driver == "sync_ghs")
    return emst::run(topo, emst::config_for(emst::Driver::kSyncGhs))
        .totals.energy;
  if (driver == "classic_ghs")
    return emst::run(topo, emst::config_for(emst::Driver::kClassicGhs))
        .totals.energy;
  return nnt::run_connt(topo, {}).totals.energy;
}

struct Cell {
  support::RunningStats survival, overhead, kills, epochs;
  std::size_t exact = 0;
  std::uint64_t oracle_violations = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(
      argc, argv,
      {{"n", "node count (default 192)"},
       {"trials", "trials per (driver, strategy) cell (default 5)"},
       {"seed", "master seed (default 2008)"},
       {"json", "output JSON path (default BENCH_chaos.json)"},
       {"csv", "write CSV to this path"}});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 192));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 5));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));
  const std::string json_path = cli.get("json", "BENCH_chaos.json");

  const auto strategies = sim::shipped_strategies();
  std::printf("chaos campaign at n=%zu: %zu drivers x %zu strategies x %zu "
              "trials, invariant oracle on\n\n",
              n, kDrivers.size(), strategies.size(), trials);

  // One field + per-driver fault-free baseline per trial, shared by every
  // strategy so overhead factors compare like with like.
  std::vector<sim::Topology> fields;
  fields.reserve(trials);
  std::vector<std::array<double, kDrivers.size()>> baselines(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    support::Rng rng(support::Rng::stream_seed(seed, t));
    fields.push_back(eopt::eopt_topology(geometry::uniform_points(n, rng)));
    for (std::size_t di = 0; di < kDrivers.size(); ++di) {
      baselines[t][di] = baseline_energy(kDrivers[di], fields[t]);
    }
  }

  std::vector<std::vector<Cell>> cells(
      kDrivers.size(), std::vector<Cell>(strategies.size()));
  for (std::size_t di = 0; di < kDrivers.size(); ++di) {
    for (std::size_t si = 0; si < strategies.size(); ++si) {
      Cell& cell = cells[di][si];
      for (std::size_t t = 0; t < trials; ++t) {
        const auto controller = sim::make_controller(strategies[si]);
        sim::InvariantOracle oracle;
        const RunOut out = run_driver(
            kDrivers[di], fields[t], controller.get(),
            support::Rng::stream_seed(seed ^ 0xC4A05ULL, t), &oracle);
        const std::vector<char> alive = sim::alive_mask(n, out.injected);
        const auto dead =
            static_cast<std::size_t>(std::count(alive.begin(), alive.end(), 0));
        bool exact;
        if (kDrivers[di] == "connt") {
          exact = out.parent ==
                  nnt::survivor_nnt_parents(fields[t].points(), alive,
                                            nnt::RankScheme::kDiagonal);
        } else {
          exact = graph::same_edge_set(out.tree,
                                       sim::survivor_msf(fields[t], alive));
        }
        cell.survival.add(static_cast<double>(n - dead) /
                          static_cast<double>(n));
        cell.overhead.add(out.energy / baselines[t][di]);
        cell.kills.add(static_cast<double>(controller->kills()));
        cell.epochs.add(static_cast<double>(out.epochs));
        if (exact) ++cell.exact;
        cell.oracle_violations += oracle.violations().size();
      }
    }
  }

  support::Table table({"driver", "strategy", "survival", "exact", "overhead",
                        "kills", "epochs", "oracle"});
  table.set_precision(2, 3);
  table.set_precision(4, 3);
  for (std::size_t di = 0; di < kDrivers.size(); ++di) {
    for (std::size_t si = 0; si < strategies.size(); ++si) {
      const Cell& cell = cells[di][si];
      table.add_row({std::string(kDrivers[di]), std::string(strategies[si]),
                     cell.survival.mean(),
                     std::string(std::to_string(cell.exact) + "/" +
                                 std::to_string(trials)),
                     cell.overhead.mean(), cell.kills.mean(),
                     cell.epochs.mean(),
                     static_cast<double>(cell.oracle_violations)});
    }
  }
  table.print(std::cout);
  if (cli.has("csv")) table.save_csv(cli.get("csv", ""));

  {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    support::JsonWriter json(os);
    json.begin_object();
    json.key("n").value(static_cast<std::uint64_t>(n));
    json.key("trials").value(static_cast<std::uint64_t>(trials));
    json.key("seed").value(seed);
    json.key("max_kill_fraction").value(0.2);
    json.key("campaign").begin_array();
    for (std::size_t di = 0; di < kDrivers.size(); ++di) {
      for (std::size_t si = 0; si < strategies.size(); ++si) {
        const Cell& cell = cells[di][si];
        json.begin_object();
        json.key("driver").value(kDrivers[di]);
        json.key("strategy").value(strategies[si]);
        json.key("survival").value(cell.survival.mean());
        json.key("exact").value(static_cast<double>(cell.exact) /
                                static_cast<double>(trials));
        json.key("energy_overhead").value(cell.overhead.mean());
        json.key("kills").value(cell.kills.mean());
        json.key("epochs").value(cell.epochs.mean());
        json.key("oracle_violations").value(cell.oracle_violations);
        json.end_object();
      }
    }
    json.end_array();
    json.end_object();
    os << '\n';
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  bool all_exact = true;
  for (const auto& row : cells) {
    for (const Cell& cell : row) {
      if (cell.exact != trials || cell.oracle_violations != 0)
        all_exact = false;
    }
  }
  if (!all_exact) {
    std::fprintf(stderr, "\nFAIL: some cells missed the per-component "
                         "exactness contract or tripped the oracle\n");
    return 1;
  }
  std::printf("\nevery cell met the fail-stop contract: exact MSF of each "
              "surviving component, zero oracle violations.\n");
  return 0;
}
