// Memory/scale sweep for the two topology backends (docs/PERF.md).
//
// For EOPT, sync GHS and Co-NNT, at n up to ten million nodes, runs the
// driver on the materialized CSR backend (`sim::Topology`) and on the
// implicit grid backend (`sim::ImplicitTopology`) and records wall time +
// peak RSS per configuration. Results go to the console table and to the
// tracked BENCH_scale.json at the repo root. These rows are the record
// behind `emst::run(const Instance&)` building the implicit grid.
//
// Every configuration runs in its OWN child process (fork + re-exec of this
// binary), so `wait4`'s ru_maxrss is that run's true peak — not the high
// water mark of whatever ran before it in the same address space.
//
// Materialized configurations whose projected allocation exceeds the memory
// budget (default 16 GiB — a realistic deployment box, not this host's RAM)
// are recorded as skipped with the projected byte count: that is the point
// of the sweep. The implicit backend stays O(n) and runs everywhere.
//
// Where both backends complete at the same (algo, n), the energy totals
// must match bit-for-bit (`identical` in the JSON; the record is invalid
// otherwise) — the cheap end-to-end echo of tests/topology_differential.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/run.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/adjacency.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/implicit_topology.hpp"
#include "emst/sim/topology.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/json.hpp"
#include "emst/support/rng.hpp"
#include "emst/support/table.hpp"

#ifndef EMST_CMAKE_BUILD_TYPE
#define EMST_CMAKE_BUILD_TYPE ""
#endif

namespace {

using namespace emst;
using Clock = std::chrono::steady_clock;

struct Config {
  std::string algo;     ///< "eopt" | "sync" | "connt" (driver_name)
  std::string backend;  ///< "implicit" | "materialized"
  std::size_t n = 0;
};

/// What one child run reports back (energy as hexfloat for an exact
/// round-trip; the parent compares backends bitwise).
struct ChildReport {
  double wall_ms = 0.0;
  double energy = 0.0;
  std::uint64_t tree_edges = 0;
  std::uint64_t phases = 0;
};

/// Projected bytes for MATERIALIZING the r-disk graph at size n: the build
/// edge list (24 B/edge) plus the CSR (two `graph::Neighbor` entries per
/// edge) plus points and offsets. Expected edges m = C(n,2)·π r² (uniform
/// square, ignoring boundary — an overestimate of at most ~2x near r ≈ 1).
double projected_materialized_bytes(std::size_t n, double radius) {
  constexpr double kNeighborBytes = sizeof(graph::Neighbor);
  const double nn = static_cast<double>(n);
  const double m = nn * (nn - 1.0) / 2.0 * std::min(1.0, M_PI * radius * radius);
  return m * (24.0 + 2.0 * kNeighborBytes) + nn * 48.0;
}

double algo_radius(std::size_t n) {
  // EOPT's topology lives at r₂ = 1.6·√(ln n / n); sync GHS and Co-NNT run
  // the plain connectivity radius (same formula, default factor), so every
  // algorithm shares one radius.
  return rgg::connectivity_radius(n);
}

// --- Child mode ----------------------------------------------------------

template <typename Topo>
ChildReport run_one(Topo&& make_topo, const std::string& algo) {
  ChildReport out;
  const auto start = Clock::now();
  const auto topo = make_topo();  // topology build is part of the story
  // EOPT's phases are step1 + step2 (eopt.cpp sums them into `run.phases`).
  emst::Driver driver = emst::Driver::kEopt;
  const bool known = emst::parse_driver(algo, driver);
  EMST_ASSERT_MSG(known, "scale_sweep: unknown --algo");
  const emst::RunResult run = emst::run(topo, emst::config_for(driver));
  out.energy = run.totals.energy;
  out.tree_edges = run.tree.size();
  out.phases = run.phases;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return out;
}

int run_child(const std::string& algo, const std::string& backend,
              std::size_t n, std::uint64_t seed, const std::string& out_path) {
  support::Rng rng(seed);
  auto points = geometry::uniform_points(n, rng);
  const double radius = algo_radius(n);

  ChildReport report;
  if (backend == "implicit") {
    report = run_one(
        [&] { return sim::ImplicitTopology(std::move(points), radius); },
        algo);
  } else {
    report = run_one([&] { return sim::Topology(std::move(points), radius); },
                     algo);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "wall_ms=%.6f energy=%a tree_edges=%llu phases=%llu\n",
               report.wall_ms, report.energy,
               static_cast<unsigned long long>(report.tree_edges),
               static_cast<unsigned long long>(report.phases));
  std::fclose(out);
  return 0;
}

// --- Parent mode ---------------------------------------------------------

struct Row {
  Config config;
  std::string status;  ///< "ok" | "skipped" | "failed"
  ChildReport report;
  std::uint64_t peak_rss_bytes = 0;
  double projected_bytes = 0.0;  ///< set for skipped materialized configs
};

/// fork + re-exec this binary for one configuration; fills wall/energy from
/// the child's report file and peak RSS from wait4's rusage.
bool spawn_config(const char* self, const Config& config, std::uint64_t seed,
                  const std::string& tmp_path, Row& row) {
  std::vector<std::string> args = {
      self,
      "--worker=1",
      "--algo=" + config.algo,
      "--backend=" + config.backend,
      "--n=" + std::to_string(config.n),
      "--seed=" + std::to_string(seed),
      "--out=" + tmp_path,
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    execv(self, argv.data());
    std::perror("execv");
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("wait4");
    return false;
  }
  row.peak_rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;

  std::FILE* in = std::fopen(tmp_path.c_str(), "r");
  if (in == nullptr) return false;
  unsigned long long edges = 0;
  unsigned long long phases = 0;
  const int got =
      std::fscanf(in, "wall_ms=%lf energy=%la tree_edges=%llu phases=%llu",
                  &row.report.wall_ms, &row.report.energy, &edges, &phases);
  std::fclose(in);
  std::remove(tmp_path.c_str());
  if (got != 4) return false;
  row.report.tree_edges = edges;
  row.report.phases = phases;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(
      argc, argv,
      {{"ns-eopt", "EOPT sizes (default 10000,100000,1000000,10000000)"},
       {"ns-sync", "sync-GHS and Co-NNT sizes (default 10000,100000,1000000)"},
       {"seed", "point-set seed (default 2026)"},
       {"json", "output JSON path (default BENCH_scale.json)"},
       {"mem-budget-gb", "materialized-path memory budget in GiB (default 16)"},
       {"quick", "1 = CI smoke run (n = 2000, 8000; every algo)"},
       {"allow-debug", "1 = run despite a non-Release build; the record is "
                       "marked untracked"},
       {"worker", "(internal) child mode"},
       {"algo", "(internal) child algorithm"},
       {"backend", "(internal) child backend"},
       {"n", "(internal) child deployment size"},
       {"out", "(internal) child report path"}});

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  if (cli.get_int("worker", 0) != 0) {
    return run_child(cli.get("algo", "eopt"), cli.get("backend", "implicit"),
                     static_cast<std::size_t>(cli.get_int("n", 10000)), seed,
                     cli.get("out", "scale_sweep_child.tmp"));
  }

  const std::string build_type = EMST_CMAKE_BUILD_TYPE;
  std::string build_lower = build_type;
  std::transform(build_lower.begin(), build_lower.end(), build_lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const bool release = build_lower == "release";
  const bool allow_debug = cli.get_int("allow-debug", 0) != 0;
  if (!release && !allow_debug) {
    std::fprintf(stderr,
                 "error: this binary was built as %s, not Release — a tracked "
                 "scaling record from it would be meaningless. Rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release, or pass --allow-debug=1 to get "
                 "an untracked record.\n",
                 build_type.empty() ? "(unspecified)" : build_type.c_str());
    return 1;
  }
  const bool untracked = !release;

  const bool quick = cli.get_int("quick", 0) != 0;
  const auto ns_eopt = cli.get_int_list(
      "ns-eopt", quick ? std::vector<std::int64_t>{2000, 8000}
                       : std::vector<std::int64_t>{10000, 100000, 1000000,
                                                   10000000});
  const auto ns_sync = cli.get_int_list(
      "ns-sync", quick ? std::vector<std::int64_t>{2000, 8000}
                       : std::vector<std::int64_t>{10000, 100000, 1000000});
  const double budget_gb = cli.get_double("mem-budget-gb", 16.0);
  const double budget_bytes = budget_gb * 1024.0 * 1024.0 * 1024.0;
  const std::string json_path = cli.get("json", "BENCH_scale.json");
  const std::string tmp_path = json_path + ".child.tmp";
  const unsigned hw = std::thread::hardware_concurrency();

  std::vector<Config> configs;
  for (const auto n : ns_eopt)
    for (const char* backend : {"materialized", "implicit"})
      configs.push_back({"eopt", backend, static_cast<std::size_t>(n)});
  for (const char* algo : {"sync", "connt"})
    for (const auto n : ns_sync)
      for (const char* backend : {"materialized", "implicit"})
        configs.push_back({algo, backend, static_cast<std::size_t>(n)});

  std::printf("scale sweep: seed=%llu, mem budget %.1f GiB (materialized "
              "path), build=%s, hardware_concurrency=%u\n\n",
              static_cast<unsigned long long>(seed), budget_gb,
              build_type.empty() ? "?" : build_type.c_str(), hw);

  std::vector<Row> rows;
  bool all_ok = true;
  for (const Config& config : configs) {
    Row row;
    row.config = config;
    if (config.backend == "materialized") {
      row.projected_bytes =
          projected_materialized_bytes(config.n, algo_radius(config.n));
      if (row.projected_bytes > budget_bytes) {
        row.status = "skipped";
        std::printf("%-5s %-12s n=%-9zu SKIPPED (projected %.1f GiB > "
                    "budget)\n",
                    config.algo.c_str(), config.backend.c_str(), config.n,
                    row.projected_bytes / (1024.0 * 1024.0 * 1024.0));
        rows.push_back(row);
        continue;
      }
    }
    std::printf("%-5s %-12s n=%-9zu running...\n", config.algo.c_str(),
                config.backend.c_str(), config.n);
    std::fflush(stdout);
    if (spawn_config(argv[0], config, seed, tmp_path, row)) {
      row.status = "ok";
      std::printf("%-5s %-12s n=%-9zu %10.0f ms  peak %8.1f MiB  "
                  "edges=%llu\n",
                  config.algo.c_str(), config.backend.c_str(), config.n,
                  row.report.wall_ms,
                  static_cast<double>(row.peak_rss_bytes) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(row.report.tree_edges));
    } else {
      row.status = "failed";
      all_ok = false;
      std::printf("%-5s %-12s n=%-9zu FAILED (peak %8.1f MiB)\n",
                  config.algo.c_str(), config.backend.c_str(), config.n,
                  static_cast<double>(row.peak_rss_bytes) / (1024.0 * 1024.0));
    }
    rows.push_back(row);
  }

  // Backend identity: where both completed at the same (algo, n), the energy
  // figure must be bitwise equal — same contract the differential suite pins.
  bool identical = true;
  for (const Row& a : rows) {
    if (a.status != "ok" || a.config.backend != "materialized") continue;
    for (const Row& b : rows) {
      if (b.status != "ok" || b.config.backend != "implicit") continue;
      if (b.config.algo != a.config.algo || b.config.n != a.config.n) continue;
      if (a.report.energy != b.report.energy ||
          a.report.tree_edges != b.report.tree_edges) {
        identical = false;
        std::fprintf(stderr,
                     "error: backends diverged at %s n=%zu "
                     "(energy %.17g vs %.17g)\n",
                     a.config.algo.c_str(), a.config.n, a.report.energy,
                     b.report.energy);
      }
    }
  }
  all_ok &= identical;

  {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    support::JsonWriter json(os);
    json.begin_object();
    json.key("bench").value("scale_sweep");
    json.key("build_type").value(build_type);
    if (untracked) json.key("untracked").value(true);
    json.key("hardware_concurrency").value(static_cast<std::uint64_t>(hw));
    json.key("seed").value(seed);
    json.key("mem_budget_bytes").value(budget_bytes);
    json.key("identical").value(identical);
    json.key("rows").begin_array();
    for (const Row& row : rows) {
      json.begin_object();
      json.key("algo").value(row.config.algo);
      json.key("backend").value(row.config.backend);
      json.key("n").value(static_cast<std::uint64_t>(row.config.n));
      json.key("status").value(row.status);
      if (row.status == "ok") {
        json.key("wall_ms").value(row.report.wall_ms);
        json.key("peak_rss_bytes").value(row.peak_rss_bytes);
        json.key("energy").value(row.report.energy);
        json.key("tree_edges").value(row.report.tree_edges);
        json.key("phases").value(row.report.phases);
      }
      if (row.config.backend == "materialized")
        json.key("projected_bytes").value(row.projected_bytes);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    os << '\n';
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  support::Table table({"algo", "backend", "n", "status", "wall_s",
                        "peak_rss_mb"});
  for (const Row& row : rows) {
    table.add_row({row.config.algo, row.config.backend,
                   static_cast<long long>(row.config.n), row.status,
                   row.report.wall_ms / 1000.0,
                   static_cast<double>(row.peak_rss_bytes) / (1024.0 * 1024.0)});
  }
  table.print(std::cout);
  std::printf("\nreading guide: peak_rss_mb is the child process's ru_maxrss "
              "— each configuration runs in its own process, so the number "
              "is that run's true peak. Skipped rows are materialized "
              "configurations whose projected allocation exceeds the memory "
              "budget; the implicit backend has no such rows. 'identical' "
              "rows confirm both backends produced bitwise-equal energy and "
              "tree size wherever both ran.\n");
  return all_ok ? 0 : 1;
}
