// emst_cli — run any of the library's algorithms on a random deployment and
// emit one machine-readable record (text or JSON). The scripting entry
// point: sweep drivers, notebooks, and CI smoke checks all shell out to
// this. Every algorithm dispatches through the `emst::run` facade
// (docs/API_TOUR.md) and all run-configuration flags come from the parser
// shared with `emst_serve` (emst/run_flags.hpp), so the two frontends
// accept the same knobs with the same spellings.
//
//   ./emst_cli --algo=eopt --n=2000 --seed=7 --format=json
//   ./emst_cli --algo=ghs,eopt,connt --n=500 --format=text
//   ./emst_cli --algo=eopt --n=1000 --loss=0.1 --arq=1   # lossy channel
//   ./emst_cli --algo=eopt --breakdown=1                 # Thm 5.3 split
//   ./emst_cli --algo=sync --trace=run.jsonl             # telemetry trace
//
// Algorithms: ghs | ghs-cached | sync | sync-probe | eopt | connt |
//             connt-axis | kpnnt
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "emst/geometry/sampling.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/nnt/kp_nnt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/run.hpp"
#include "emst/run_flags.hpp"
#include "emst/sim/chaos.hpp"
#include "emst/sim/trace_replay.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/json.hpp"
#include "emst/support/rng.hpp"

namespace {

using namespace emst;

struct Record {
  std::string algo;
  sim::RunResult run;
  double tree_len = 0.0;
  double tree_sq = 0.0;
  bool spanning = false;
  bool exact = false;
};

/// Whether every name in `algos` can run with `flags`; prints why not (a
/// fault model a driver cannot take exits 2 in reject_unsupported_faults).
/// KP-NNT predates the facade's driver set: a comparison-only baseline,
/// with no faults, telemetry or ledgers.
bool algos_runnable(const std::vector<std::string>& algos,
                    const RunFlags& flags) {
  for (const std::string& algo : algos) {
    if (algo == "kpnnt") {
      if (flags.faults.enabled() || flags.arq.enabled) {
        std::cerr << "kpnnt supports no fault model (crash-only --chaos "
                     "works everywhere else)\n";
        return false;
      }
      if (!flags.trace_path.empty()) {
        std::cerr << "--trace is not supported for kpnnt\n";
        return false;
      }
      continue;
    }
    Driver driver;
    if (!parse_driver(algo, driver)) {
      std::cerr << "unknown algorithm: " << algo << '\n';
      return false;
    }
    reject_unsupported_faults(flags, driver);
  }
  return true;
}

/// Runs one algorithm that algos_runnable accepted.
Record run_one(const std::string& algo, const sim::Topology& topo,
               const std::vector<geometry::Point2>& points,
               const std::vector<graph::Edge>& reference,
               const RunFlags& flags, sim::Telemetry* telemetry) {
  Record record;
  record.algo = algo;
  // Permanent kills make the MSF of the surviving subgraph the exact answer
  // (docs/ROBUSTNESS.md).
  std::optional<std::vector<graph::Edge>> survivor_reference;
  if (algo == "kpnnt") {
    if (flags.per_node || flags.breakdown) {
      std::cerr << "warning: --per-node/--breakdown not available for kpnnt; "
                   "column omitted\n";
    }
    record.run = nnt::run_kp_nnt(topo);
  } else {
    RunConfig cfg;
    const bool known = parse_driver(algo, cfg.driver);
    EMST_ASSERT(known);
    flags.apply(cfg);
    cfg.telemetry = telemetry;
    record.run = emst::run(topo, cfg);
    const std::vector<char> alive =
        sim::alive_mask(points.size(), record.run.injected_crashes);
    if (std::find(alive.begin(), alive.end(), 0) != alive.end())
      survivor_reference = sim::survivor_msf(topo, alive);
  }
  const sim::RunResult& run = record.run;
  if (flags.per_node && run.per_node_energy.empty() && algo != "kpnnt") {
    std::cerr << "warning: per-node energy unavailable for " << algo << '\n';
  }
  record.tree_len = graph::tree_cost(points, run.tree, 1.0);
  record.tree_sq = graph::tree_cost(points, run.tree, 2.0);
  record.spanning = graph::is_spanning_tree(points.size(), run.tree);
  record.exact = graph::same_edge_set(
      run.tree, survivor_reference ? *survivor_reference : reference);
  return record;
}

double hottest(const std::vector<double>& per_node) {
  double worst = 0.0;
  for (const double e : per_node) worst = std::max(worst, e);
  return worst;
}

/// Phases that actually saw traffic or rounds (skip all-zero rows).
std::vector<sim::PhaseTag> active_phases(const sim::EnergyBreakdown& matrix) {
  std::vector<sim::PhaseTag> out;
  for (std::size_t p = 0; p < sim::EnergyBreakdown::kPhases; ++p) {
    const auto phase = static_cast<sim::PhaseTag>(p);
    const sim::Accounting row = matrix.phase_total(phase);
    if (row.messages() != 0 || row.rounds != 0) out.push_back(phase);
  }
  return out;
}

void json_breakdown(support::JsonWriter& json,
                    const sim::EnergyBreakdown& matrix) {
  json.key("breakdown").begin_object();
  for (const sim::PhaseTag phase : active_phases(matrix)) {
    const sim::Accounting row = matrix.phase_total(phase);
    json.key(sim::phase_tag_name(phase)).begin_object();
    json.key("energy").value(row.energy);
    json.key("messages").value(row.messages());
    json.key("rounds").value(row.rounds);
    json.key("kinds").begin_object();
    for (std::size_t k = 0; k < sim::EnergyBreakdown::kKinds; ++k) {
      const auto kind = static_cast<sim::MsgKind>(k);
      const auto& cell = matrix.cell(phase, kind);
      if (cell.messages == 0) continue;
      json.key(sim::msg_kind_name(kind)).begin_object();
      json.key("energy").value(cell.energy);
      json.key("messages").value(cell.messages);
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }
  json.end_object();
}

void print_breakdown(const Record& record) {
  std::printf("breakdown %s (energy / messages per phase x kind):\n",
              record.algo.c_str());
  const sim::EnergyBreakdown& matrix = record.run.breakdown;
  for (const sim::PhaseTag phase : active_phases(matrix)) {
    const sim::Accounting row = matrix.phase_total(phase);
    std::printf("  %-7s %12.4f %8llu msgs %6llu rounds |",
                std::string(sim::phase_tag_name(phase)).c_str(), row.energy,
                static_cast<unsigned long long>(row.messages()),
                static_cast<unsigned long long>(row.rounds));
    for (std::size_t k = 0; k < sim::EnergyBreakdown::kKinds; ++k) {
      const auto kind = static_cast<sim::MsgKind>(k);
      const auto& cell = matrix.cell(phase, kind);
      if (cell.messages == 0) continue;
      std::printf(" %s=%.4f/%llu",
                  std::string(sim::msg_kind_name(kind)).c_str(), cell.energy,
                  static_cast<unsigned long long>(cell.messages));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> spec = {
      {"algo", "comma-separated list (ghs|ghs-cached|sync|sync-probe|eopt|"
               "connt|connt-axis|kpnnt); default eopt"},
      {"n", "node count (default 1000)"},
      {"seed", "deployment seed (default 1)"},
      {"radius-factor", "connectivity radius factor (default 1.6)"},
      {"bits", "1 = bits-on-air column (proto wire codec sizes; zero for "
               "algorithms without a wire format)"},
      {"format", "text | json (default text)"}};
  merge_run_flag_spec(spec);
  const support::Cli cli(argc, argv, std::move(spec));
  const auto n = static_cast<std::size_t>(cli.get_int("n", 1000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double factor = cli.get_double("radius-factor", 1.6);
  const std::string format = cli.get("format", "text");
  const bool show_bits = cli.get_int("bits", 0) != 0;
  const RunFlags flags = parse_run_flags(cli);

  std::vector<std::string> algos;
  {
    std::stringstream ss(cli.get("algo", "eopt"));
    std::string piece;
    while (std::getline(ss, piece, ',')) {
      if (!piece.empty()) algos.push_back(piece);
    }
  }
  if (!flags.trace_path.empty() && algos.size() != 1) {
    std::cerr << "--trace records exactly one run; pass a single --algo\n";
    return 2;
  }
  if (flags.chaos_controller != nullptr && algos.size() != 1) {
    std::cerr << "--chaos attaches one adversary (one kill budget) to one "
                 "run; pass a single --algo\n";
    return 2;
  }

  // Before the topology is built or the trace file is created, so a
  // rejected invocation runs nothing and leaves no file behind.
  if (!algos_runnable(algos, flags)) return 2;

  support::Rng rng(seed);
  const auto points = geometry::uniform_points(n, rng);
  const sim::Topology topo(points, rgg::connectivity_radius(n, factor));
  const auto reference = graph::kruskal_msf(n, topo.graph().edges());

  std::ofstream trace_file;
  sim::Telemetry telemetry;
  std::optional<sim::JsonlTraceSink> jsonl;
  sim::Telemetry* telemetry_ptr = nullptr;
  if (!flags.trace_path.empty()) {
    trace_file.open(flags.trace_path);
    if (!trace_file) {
      std::cerr << "cannot open trace file: " << flags.trace_path << '\n';
      return 2;
    }
    jsonl.emplace(trace_file);
    telemetry.set_sink(&*jsonl);
    telemetry_ptr = &telemetry;
    // Record the driver variant that will actually execute (the Co-NNT
    // drivers silently dispatch to their node-actor implementation under
    // faults or ranks) so emst_trace can validate the dispatch.
    sim::TraceHeader header{.algo = algos.front(),
                            .n = n,
                            .seed = seed,
                            .threads = flags.threads,
                            .ranks = flags.ranks,
                            .driver = algos.front()};
    Driver traced_driver;
    if (parse_driver(algos.front(), traced_driver)) {
      emst::RunConfig traced_cfg = emst::config_for(traced_driver);
      flags.apply(traced_cfg);
      header.driver = resolved_driver_name(traced_driver, traced_cfg);
    }
    sim::write_trace_header(trace_file, header);
  }

  std::vector<Record> records;
  records.reserve(algos.size());
  for (const std::string& algo : algos)
    records.push_back(run_one(algo, topo, points, reference, flags,
                              telemetry_ptr));

  if (jsonl.has_value()) {
    const sim::RunResult& traced = records.front().run;
    sim::write_trace_summary(trace_file, traced.totals, traced.faults,
                             traced.arq);
  }

  if (format == "json") {
    support::JsonWriter json(std::cout);
    json.begin_object();
    json.key("n").value(n);
    json.key("seed").value(seed);
    json.key("radius").value(topo.max_radius());
    json.key("edges").value(topo.graph().edge_count());
    json.key("connected").value(reference.size() == n - 1);
    json.key("mst_len").value(graph::tree_cost(points, reference, 1.0));
    json.key("mst_sq").value(graph::tree_cost(points, reference, 2.0));
    json.key("runs").begin_array();
    for (const Record& r : records) {
      const sim::RunResult& run = r.run;
      json.begin_object();
      json.key("algo").value(r.algo);
      json.key("energy").value(run.totals.energy);
      json.key("messages").value(run.totals.messages());
      json.key("unicasts").value(run.totals.unicasts);
      json.key("broadcasts").value(run.totals.broadcasts);
      json.key("rounds").value(run.totals.rounds);
      json.key("bits").value(run.totals.bits);
      json.key("phases").value(run.phases);
      json.key("tree_len").value(r.tree_len);
      json.key("tree_sq").value(r.tree_sq);
      json.key("spanning").value(r.spanning);
      json.key("exact_mst").value(r.exact);
      const sim::FaultStats& faults = run.faults;
      if (faults.lost + faults.dropped_crashed + faults.suppressed > 0) {
        json.key("lost").value(faults.lost);
        json.key("dropped_crashed").value(faults.dropped_crashed);
        json.key("suppressed").value(faults.suppressed);
      }
      if (run.arq.data_sent > 0) {
        json.key("arq_data").value(run.arq.data_sent);
        json.key("arq_retransmissions").value(run.arq.retransmissions);
        json.key("arq_give_ups").value(run.arq.give_ups);
        json.key("arq_data_bits").value(run.arq.data_bits);
        json.key("arq_ack_bits").value(run.arq.ack_bits);
      }
      if (run.hit_phase_cap) json.key("hit_phase_cap").value(true);
      if (!run.injected_crashes.empty())
        json.key("injected_crashes").value(run.injected_crashes.size());
      if (run.epochs > 1) json.key("epochs").value(run.epochs);
      if (flags.oracle != nullptr)
        json.key("oracle_violations").value(flags.oracle->violations().size());
      if (!run.per_node_energy.empty())
        json.key("hottest_node_energy").value(hottest(run.per_node_energy));
      if (run.breakdown_recorded) json_breakdown(json, run.breakdown);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::cout << '\n';
  } else {
    std::printf("n=%zu seed=%llu radius=%.4f edges=%zu\n", n,
                static_cast<unsigned long long>(seed), topo.max_radius(),
                topo.graph().edge_count());
    const bool show_hot = flags.per_node;
    std::printf("%-12s %12s %10s %8s%s %10s %10s %6s%s\n", "algo", "energy",
                "messages", "rounds", show_bits ? "         bits" : "",
                "sum|e|", "sum|e|^2", "exact", show_hot ? "    hottest" : "");
    for (const Record& r : records) {
      const sim::Accounting& totals = r.run.totals;
      std::printf("%-12s %12.4f %10llu %8llu", r.algo.c_str(), totals.energy,
                  static_cast<unsigned long long>(totals.messages()),
                  static_cast<unsigned long long>(totals.rounds));
      if (show_bits) {
        std::printf(" %12llu", static_cast<unsigned long long>(totals.bits));
      }
      std::printf(" %10.4f %10.5f %6s", r.tree_len, r.tree_sq,
                  r.exact ? "yes" : "no");
      if (show_hot) {
        if (r.run.per_node_energy.empty()) {
          std::printf("          -");
        } else {
          std::printf(" %10.5f", hottest(r.run.per_node_energy));
        }
      }
      std::printf("\n");
    }
    for (const Record& r : records) {
      if (r.run.breakdown_recorded && flags.breakdown) print_breakdown(r);
    }
    if (flags.chaos_controller != nullptr) {
      std::printf("chaos: strategy=%s kills=%zu\n",
                  std::string(flags.chaos_controller->name()).c_str(),
                  flags.chaos_controller->kills());
    }
  }
  if (flags.oracle != nullptr && !flags.oracle->ok()) {
    for (const sim::OracleViolation& v : flags.oracle->violations()) {
      std::fprintf(stderr, "oracle violation [%s] round %llu: %s\n",
                   v.invariant.c_str(),
                   static_cast<unsigned long long>(v.round), v.detail.c_str());
    }
    return 1;
  }
  return 0;
}
