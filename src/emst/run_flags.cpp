#include "emst/run_flags.hpp"

#include <cstdlib>
#include <iostream>
#include <utility>

namespace emst {

namespace {

/// One table defines spelling + help; merge and parse both walk it, so a
/// flag cannot exist in one frontend and not the other.
const std::map<std::string, std::string>& shared_spec() {
  static const std::map<std::string, std::string> spec = {
      {"loss", "Bernoulli message-loss probability (default 0; "
               "sync|sync-probe|eopt only, see docs/ROBUSTNESS.md)"},
      {"fault-seed", "fault-layer RNG seed (default 0xFA011A)"},
      {"arq", "1 = stop-and-wait ARQ on every unicast (default 0)"},
      {"chaos", "adversarial crash strategy (kill_leader|sever_core_edge|"
                "partition_half|crash_wave); crash-only fail-stop, so "
                "emst_cli's exact column then checks the MSF of the "
                "surviving subgraph (docs/ROBUSTNESS.md)"},
      {"oracle", "1 = runtime invariant oracle; exits 1 on any violation "
                 "(docs/ROBUSTNESS.md)"},
      {"per-node", "1 = per-node energy ledger (adds hottest-node column)"},
      {"breakdown", "1 = per-phase x per-kind energy matrix "
                    "(docs/TELEMETRY.md)"},
      {"trace", "write a JSONL telemetry trace to this path (validate with "
                "emst_trace)"},
      {"threads", "worker threads for the fragment views of "
                  "sync|sync-probe|eopt and the probes of connt|connt-axis "
                  "(default 1); results are bitwise identical for every "
                  "value (docs/PERF.md)"},
      {"ranks", "worker processes (default 0 = in-process); ghs|connt run "
                "over the distributed engine, bitwise identical for every "
                "value (docs/DISTRIBUTED.md)"},
  };
  return spec;
}

}  // namespace

void merge_run_flag_spec(std::map<std::string, std::string>& spec) {
  for (const auto& [flag, help] : shared_spec()) {
    const auto [it, inserted] = spec.emplace(flag, help);
    if (!inserted) {
      std::cerr << "internal error: frontend flag --" << flag
                << " collides with a shared run flag\n";
      std::exit(2);
    }
  }
}

RunFlags parse_run_flags(const support::Cli& cli) {
  RunFlags flags;
  flags.faults.loss = cli.get_double("loss", 0.0);
  if (cli.has("fault-seed")) {
    flags.faults.seed =
        static_cast<std::uint64_t>(cli.get_int("fault-seed", 0));
  }
  flags.arq.enabled = cli.get_int("arq", 0) != 0;
  if (cli.has("chaos")) {
    flags.chaos_controller = sim::make_controller(cli.get("chaos", ""));
    if (flags.chaos_controller == nullptr) {
      std::cerr << "unknown chaos strategy: " << cli.get("chaos", "")
                << " (try kill_leader|sever_core_edge|partition_half|"
                   "crash_wave)\n";
      std::exit(2);
    }
    flags.faults.controller = flags.chaos_controller.get();
  }
  if (cli.get_int("oracle", 0) != 0) {
    flags.oracle_enabled = true;
    flags.oracle = std::make_unique<sim::InvariantOracle>();
  }
  flags.per_node = cli.get_int("per-node", 0) != 0;
  flags.breakdown = cli.get_int("breakdown", 0) != 0;
  flags.threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  flags.ranks = static_cast<std::size_t>(cli.get_int("ranks", 0));
  flags.trace_path = cli.get("trace", "");
  return flags;
}

void reject_unsupported_faults(const RunFlags& flags, Driver driver) {
  if (flags.lossy() && !driver_supports_loss(driver)) {
    std::cerr << "--loss/--arq apply to the loss-recovering engines only "
                 "(sync|sync-probe|eopt), not " << driver_name(driver)
              << " (crash-only --chaos works everywhere but kpnnt)\n";
    std::exit(2);
  }
}

}  // namespace emst
