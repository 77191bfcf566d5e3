// Serve-session throughput: how fast the resident Session (serve/session.hpp)
// absorbs mutation batches, and how *local* the incremental repair stays.
//
// Two phases, mirroring scripts/validate_bench.py's check_serve contract:
//
//   verify — a churn workload with every commit differential-checked against
//            graph::kruskal_msf from outside the session. The tracked record
//            carries the outcome as `incremental_exact`; a false flag must
//            never be committed.
//   timed  — the same workload shape at full size with verification off,
//            measuring requests/sec through queue+commit and the mean
//            nodes-touched-per-update locality metric. Incremental commits
//            are reported separately from full rebuilds: the whole point of
//            the serve path is that a constant-size batch touches o(n) nodes.
//
// Results go to the console table and the tracked BENCH_serve.json.
//
//   bench/serve_throughput --n=4000 --batches=200 --ops=4 --json=BENCH_serve.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "emst/geometry/sampling.hpp"
#include "emst/graph/edge.hpp"
#include "emst/serve/session.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/json.hpp"
#include "emst/support/rng.hpp"
#include "emst/support/table.hpp"

namespace {

using namespace emst;
using Clock = std::chrono::steady_clock;

serve::NodeId random_alive(const serve::Session& s, support::Rng& rng) {
  if (s.alive_count() == 0) return graph::kNoNode;
  for (int tries = 0; tries < 256; ++tries) {
    const auto id = static_cast<serve::NodeId>(rng.uniform_int(s.capacity()));
    if (s.alive(id)) return id;
  }
  return graph::kNoNode;
}

/// Queue one batch of `ops` mixed mutations (add / remove / move in equal
/// shares); returns the number actually admitted.
std::size_t queue_batch(serve::Session& s, support::Rng& rng,
                        std::size_t ops) {
  std::size_t admitted = 0;
  for (std::size_t k = 0; k < ops; ++k) {
    const std::uint64_t pick = rng.uniform_int(3);
    if (pick == 0) {
      if (s.queue_add({rng.uniform(), rng.uniform()}) != graph::kNoNode)
        ++admitted;
    } else if (pick == 1) {
      const serve::NodeId id = random_alive(s, rng);
      if (id != graph::kNoNode && s.queue_remove(id)) ++admitted;
    } else {
      const serve::NodeId id = random_alive(s, rng);
      if (id != graph::kNoNode &&
          s.queue_move(id, {rng.uniform(), rng.uniform()}))
        ++admitted;
    }
  }
  return admitted;
}

struct PhaseOutcome {
  double wall_ms = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t commits = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t nodes_touched = 0;
  std::uint64_t incremental_commits = 0;
  std::uint64_t incremental_nodes_touched = 0;
  bool exact = true;

  [[nodiscard]] double requests_per_sec() const {
    return wall_ms > 0.0 ? 1e3 * static_cast<double>(admitted) / wall_ms : 0.0;
  }
  [[nodiscard]] double mean_touched() const {
    return commits > 0
               ? static_cast<double>(nodes_touched) /
                     static_cast<double>(commits)
               : 0.0;
  }
  [[nodiscard]] double mean_touched_incremental() const {
    return incremental_commits > 0
               ? static_cast<double>(incremental_nodes_touched) /
                     static_cast<double>(incremental_commits)
               : 0.0;
  }
};

/// The external differential (the bench's own suspenders; the session's
/// verify_after_commit assert would abort instead of reporting).
bool tree_matches_reference(const serve::Session& s) {
  const std::vector<graph::Edge> ref = s.reference_msf();
  if (s.tree().size() != ref.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!(s.tree()[i] == ref[i]) || s.tree()[i].w != ref[i].w) return false;
  }
  return true;
}

PhaseOutcome run_phase(std::size_t n, std::uint64_t seed, std::size_t batches,
                       std::size_t ops, bool verify) {
  support::Rng point_rng(seed);
  serve::SessionConfig cfg;
  cfg.run.driver = Driver::kEopt;
  serve::Session s(geometry::uniform_points(n, point_rng), cfg);

  support::Rng rng(support::Rng::stream_seed(seed, 1));
  PhaseOutcome out;
  const auto start = Clock::now();
  for (std::size_t b = 0; b < batches; ++b) {
    out.admitted += queue_batch(s, rng, ops);
    const serve::CommitOutcome commit = s.commit();
    ++out.commits;
    out.nodes_touched += commit.nodes_touched;
    if (commit.rebuilt) {
      ++out.rebuilds;
    } else {
      ++out.incremental_commits;
      out.incremental_nodes_touched += commit.nodes_touched;
    }
    if (verify && !tree_matches_reference(s)) out.exact = false;
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(
      argc, argv,
      {{"n", "deployment size for the timed phase (default 4000)"},
       {"verify-n", "deployment size for the verified phase (default 300)"},
       {"batches", "mutation batches per phase (default 200)"},
       {"ops", "mutation requests per batch (default 4)"},
       {"seed", "deployment + workload seed (default 2008)"},
       {"json", "output JSON path (default BENCH_serve.json)"},
       {"quick", "1 = CI-sized run (n=800, 40 batches)"}});
  const bool quick = cli.get_int("quick", 0) != 0;
  const auto n = static_cast<std::size_t>(cli.get_int("n", quick ? 800 : 4000));
  const auto verify_n =
      static_cast<std::size_t>(cli.get_int("verify-n", quick ? 150 : 300));
  const auto batches =
      static_cast<std::size_t>(cli.get_int("batches", quick ? 40 : 200));
  const auto ops = static_cast<std::size_t>(cli.get_int("ops", 4));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));
  const std::string json_path = cli.get("json", "BENCH_serve.json");

  std::printf("serve throughput: verify n=%zu, timed n=%zu, %zu batches x "
              "%zu ops, seed %llu\n\n",
              verify_n, n, batches, ops,
              static_cast<unsigned long long>(seed));

  const PhaseOutcome verified =
      run_phase(verify_n, seed, batches, ops, /*verify=*/true);
  const PhaseOutcome timed =
      run_phase(n, support::Rng::stream_seed(seed, 2), batches, ops,
                /*verify=*/false);

  support::Table table({"phase", "n", "req/s", "commits", "rebuilds",
                        "touched/commit", "touched/incr"});
  table.set_precision(2, 0);
  table.set_precision(5, 1);
  table.set_precision(6, 1);
  table.add_row({"verify", static_cast<long long>(verify_n),
                 verified.requests_per_sec(),
                 static_cast<long long>(verified.commits),
                 static_cast<long long>(verified.rebuilds),
                 verified.mean_touched(),
                 verified.mean_touched_incremental()});
  table.add_row({"timed", static_cast<long long>(n),
                 timed.requests_per_sec(),
                 static_cast<long long>(timed.commits),
                 static_cast<long long>(timed.rebuilds),
                 timed.mean_touched(), timed.mean_touched_incremental()});
  table.print(std::cout);
  std::printf("\nincremental_exact: %s (every verified commit equals "
              "kruskal_msf over the alive deployment)\n",
              verified.exact ? "true" : "FALSE");

  if (!verified.exact) {
    std::fprintf(stderr, "error: maintained tree diverged from the "
                         "differential reference — not writing %s\n",
                 json_path.c_str());
    return 1;
  }

  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  support::JsonWriter json(os);
  json.begin_object();
  json.key("seed").value(seed);
  json.key("batches").value(static_cast<std::uint64_t>(batches));
  json.key("ops_per_batch").value(static_cast<std::uint64_t>(ops));
  json.key("incremental_exact").value(verified.exact);
  json.key("verify").begin_object();
  json.key("n").value(static_cast<std::uint64_t>(verify_n));
  json.key("commits").value(verified.commits);
  json.key("rebuilds").value(verified.rebuilds);
  json.key("requests_per_sec").value(verified.requests_per_sec());
  json.key("mean_nodes_touched").value(verified.mean_touched());
  json.end_object();
  json.key("timed").begin_object();
  json.key("n").value(static_cast<std::uint64_t>(n));
  json.key("wall_ms").value(timed.wall_ms);
  json.key("admitted").value(timed.admitted);
  json.key("commits").value(timed.commits);
  json.key("rebuilds").value(timed.rebuilds);
  json.key("requests_per_sec").value(timed.requests_per_sec());
  json.key("mean_nodes_touched").value(timed.mean_touched());
  json.key("incremental_commits").value(timed.incremental_commits);
  json.key("mean_nodes_touched_incremental")
      .value(timed.mean_touched_incremental());
  json.end_object();
  json.end_object();
  os << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
