// emst_serve — the long-lived incremental MST service (docs/SERVE.md).
//
// Daemon mode (default): sample a deployment, build its MST through the
// emst::run facade, then keep it resident — accepting framed ServeMsg
// requests over loopback TCP and folding mutation batches into the tree
// incrementally (full rebuild only when churn or radius drift demands it).
//
//   emst_serve --n=512 --seed=7 --algo=eopt --port=0 --port-file=port.txt
//
// Client mode: connect to a running daemon and drive it, either from a
// script file (one command per line: add X Y / remove ID / move ID X Y /
// commit / tree / stats / shutdown; '#' comments) or interactively from
// stdin. The CI smoke test runs exactly this over loopback.
//
//   emst_serve --client --port=12345 --script=session.txt
//
// The run-configuration knobs (--loss/--arq/--oracle/--threads/...) are the
// same flags emst_cli takes, parsed by the same emst::run_flags parser —
// they configure the facade runs the daemon performs at build/rebuild time.
// --chaos and --trace are rejected: a fail-stop-degraded rebuild would
// desync the resident deployment, and the per-run transmission trace has no
// meaning for a session that outlives its runs.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "emst/geometry/sampling.hpp"
#include "emst/run_flags.hpp"
#include "emst/serve/client.hpp"
#include "emst/serve/server.hpp"
#include "emst/support/rng.hpp"

namespace {

using emst::graph::NodeId;

int run_client_command(emst::serve::Client& client, const std::string& line,
                       bool& done) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty() || cmd[0] == '#') return 0;
  if (cmd == "add") {
    double x = 0.0, y = 0.0;
    if (!(in >> x >> y)) {
      std::fprintf(stderr, "emst_serve: bad command: %s\n", line.c_str());
      return 1;
    }
    const NodeId id = client.add_node(x, y);
    if (id == emst::graph::kNoNode) {
      std::printf("error add\n");
      return 0;
    }
    std::printf("added %u\n", id);
    return 0;
  }
  if (cmd == "remove" || cmd == "move") {
    std::uint32_t id = 0;
    double x = 0.0, y = 0.0;
    const bool is_move = cmd == "move";
    if (!(in >> id) || (is_move && !(in >> x >> y))) {
      std::fprintf(stderr, "emst_serve: bad command: %s\n", line.c_str());
      return 1;
    }
    const bool ok =
        is_move ? client.move_node(id, x, y) : client.remove_node(id);
    std::printf("%s %s %u\n", ok ? "ok" : "error", cmd.c_str(), id);
    return 0;
  }
  if (cmd == "commit") {
    const auto report = client.commit();
    if (!report.has_value()) {
      std::fprintf(stderr, "emst_serve: commit failed\n");
      return 1;
    }
    std::printf(
        "commit admitted=%u touched=%llu rebuilt=%d edges=%llu len=%.6f\n",
        report->admitted,
        static_cast<unsigned long long>(report->nodes_touched),
        report->rebuilt ? 1 : 0,
        static_cast<unsigned long long>(report->tree_edges),
        report->tree_len);
    return 0;
  }
  if (cmd == "tree") {
    const auto t = client.query_tree();
    if (!t.has_value()) {
      std::fprintf(stderr, "emst_serve: tree query failed\n");
      return 1;
    }
    std::printf("tree nodes=%llu edges=%llu len=%.6f sq=%.6f\n",
                static_cast<unsigned long long>(t->nodes),
                static_cast<unsigned long long>(t->edges), t->total_len,
                t->total_sq);
    return 0;
  }
  if (cmd == "stats") {
    const auto s = client.query_stats();
    if (!s.has_value()) {
      std::fprintf(stderr, "emst_serve: stats query failed\n");
      return 1;
    }
    std::printf(
        "stats commits=%llu rebuilds=%llu admitted=%llu touched=%llu "
        "nodes=%llu edges=%llu\n",
        static_cast<unsigned long long>(s->commits),
        static_cast<unsigned long long>(s->rebuilds),
        static_cast<unsigned long long>(s->admitted),
        static_cast<unsigned long long>(s->nodes_touched),
        static_cast<unsigned long long>(s->nodes),
        static_cast<unsigned long long>(s->tree_edges));
    return 0;
  }
  if (cmd == "shutdown") {
    if (!client.shutdown_server()) {
      std::fprintf(stderr, "emst_serve: shutdown failed\n");
      return 1;
    }
    std::printf("shutdown ok\n");
    done = true;
    return 0;
  }
  std::fprintf(stderr, "emst_serve: unknown command: %s\n", cmd.c_str());
  return 1;
}

int run_client(const emst::support::Cli& cli) {
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  if (port == 0) {
    std::fprintf(stderr, "emst_serve: --client needs --port\n");
    return 2;
  }
  emst::serve::Client client;
  if (!client.connect(port)) {
    std::fprintf(stderr, "emst_serve: cannot connect to 127.0.0.1:%u\n",
                 port);
    return 1;
  }
  const auto nodes = client.hello();
  if (!nodes.has_value()) {
    std::fprintf(stderr, "emst_serve: hello rejected\n");
    return 1;
  }
  std::printf("hello nodes=%llu\n", static_cast<unsigned long long>(*nodes));

  const std::string script = cli.get("script", "");
  std::ifstream file;
  if (!script.empty()) {
    file.open(script);
    if (!file) {
      std::fprintf(stderr, "emst_serve: cannot open script %s\n",
                   script.c_str());
      return 2;
    }
  }
  std::istream& in = script.empty() ? std::cin : file;
  std::string line;
  bool done = false;
  while (!done && std::getline(in, line)) {
    const int rc = run_client_command(client, line, done);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> spec = {
      {"client", "connect to a daemon instead of being one"},
      {"port", "TCP port: daemon binds it (0 = ephemeral), client dials it"},
      {"port-file", "daemon writes its bound port here (for scripts)"},
      {"script", "client: command file (default: stdin)"},
      {"n", "daemon: initial deployment size (default 256)"},
      {"seed", "daemon: deployment seed (default 1)"},
      {"algo", "rebuild driver: ghs|ghs-cached|sync|sync-probe|eopt"},
      {"radius-factor", "connectivity radius factor (default 1.6)"},
      {"max-batch", "auto-commit after this many mutations (default 256)"},
      {"batch-timeout-ms",
       "auto-commit a quiet non-empty batch after this long (default 50)"},
      {"verify", "differential-check the tree after every commit (slow)"},
  };
  emst::merge_run_flag_spec(spec);
  const emst::support::Cli cli(argc, argv, spec);

  if (cli.get_bool("client", false)) return run_client(cli);

  emst::RunFlags flags = emst::parse_run_flags(cli);
  if (flags.chaos_controller != nullptr) {
    std::fprintf(stderr,
                 "emst_serve: --chaos is not supported: a fail-stop degraded "
                 "rebuild would desync the resident deployment\n");
    return 2;
  }
  if (!flags.trace_path.empty()) {
    std::fprintf(stderr,
                 "emst_serve: --trace is not supported: the session outlives "
                 "any single run's transmission trace\n");
    return 2;
  }

  emst::serve::SessionConfig scfg;
  const std::string algo = cli.get("algo", "eopt");
  if (!emst::parse_driver(algo, scfg.run.driver) ||
      scfg.run.driver == emst::Driver::kCoNnt ||
      scfg.run.driver == emst::Driver::kCoNntAxis) {
    std::fprintf(stderr,
                 "emst_serve: --algo must be an MSF-exact driver "
                 "(ghs|ghs-cached|sync|sync-probe|eopt), got %s\n",
                 algo.c_str());
    return 2;
  }
  emst::reject_unsupported_faults(flags, scfg.run.driver);
  flags.apply(scfg.run);
  scfg.radius_factor = cli.get_double("radius-factor", 1.6);
  scfg.verify_after_commit = cli.get_bool("verify", false);

  const emst::Driver driver = scfg.run.driver;
  const auto n = static_cast<std::size_t>(cli.get_int("n", 256));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  if (n < 2) {
    std::fprintf(stderr, "emst_serve: --n must be at least 2\n");
    return 2;
  }
  emst::support::Rng rng(seed);
  emst::serve::Session session(emst::geometry::uniform_points(n, rng),
                               std::move(scfg));

  emst::serve::ServerConfig server_cfg;
  server_cfg.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  server_cfg.max_batch =
      static_cast<std::size_t>(cli.get_int("max-batch", 256));
  server_cfg.batch_timeout_ms =
      static_cast<int>(cli.get_int("batch-timeout-ms", 50));
  emst::serve::Server server(std::move(session), server_cfg);
  if (!server.ok()) {
    std::fprintf(stderr, "emst_serve: cannot bind 127.0.0.1:%u\n",
                 server_cfg.port);
    return 1;
  }

  const std::string port_file = cli.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::fprintf(stderr, "emst_serve: cannot write %s\n",
                   port_file.c_str());
      return 2;
    }
    out << server.port() << "\n";
  }
  std::printf("emst_serve: listening on 127.0.0.1:%u (n=%zu, algo=%s)\n",
              server.port(), server.session().alive_count(),
              emst::driver_name(driver));
  std::fflush(stdout);

  const std::uint64_t served = server.serve();
  const emst::serve::SessionStats& s = server.session().stats();
  std::printf(
      "emst_serve: done (requests=%llu commits=%llu rebuilds=%llu "
      "nodes=%zu edges=%zu)\n",
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(s.commits),
      static_cast<unsigned long long>(s.rebuilds),
      server.session().alive_count(), server.session().tree().size());
  return 0;
}
