// The repository benchmark's measuring program (perfbench/README.md).
//
//   emst_perfbench --workload=paper-csr --seed=7 --seconds=20 --trace=0
//
// prints a run stamp and one line per metric, then, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace=0, the per-layer metrics with --trace=1.
// Exits 1 when any output check failed, 2 on bad arguments.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "emst/support/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Every metric the program can print. BENCHMARK.json declares the same
// names; README.md gives each one's meaning, layer and workloads.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", true},
    {"tree_s", "s", true},
    {"tree_tail_s", "s", true},
    {"peak_rss_mb", "MiB", true},
    {"ghs_s", "s", false},
    {"eopt_s", "s", false},
    {"connt_s", "s", false},
    {"eopt_trace_s", "s", false},
    {"commit_p50_ms", "ms", false},
    {"commit_p99_ms", "ms", false},
    {"mutations_per_s", "1/s", false},
    {"trace.overhead", "ratio", false},
    {"verify_s", "s", false},
    {"geometry.points_s", "s", false},
    {"topology.build_s", "s", false},
    {"topology.edges", "count", false},
    {"topology.neighbors_sweep_s", "s", false},
    {"topology.degree_mean", "count", false},
    {"topology.nodes_within_us", "us", false},
    {"network.pump_ns_per_msg", "ns", false},
    {"ghs.messages", "count", false},
    {"ghs.rounds", "count", false},
    {"ghs.handler_invocations", "count", false},
    {"ghs.engine_share", "ratio", false},
    {"ghs.reject_per_test", "ratio", false},
    {"telemetry.events", "count", false},
    {"telemetry.jsonl_bytes", "bytes", false},
    {"telemetry.jsonl_ns_per_event", "ns", false},
    {"eopt.step1_s", "s", false},
    {"eopt.census_s", "s", false},
    {"eopt.step2_s", "s", false},
    {"eopt.unattributed_s", "s", false},
    {"eopt.messages", "count", false},
    {"eopt.rounds", "count", false},
    {"eopt.phases", "count", false},
    {"connt.messages", "count", false},
    {"connt.probe_rounds", "count", false},
    {"connt.replies_per_request", "ratio", false},
    {"proto.encode_ns", "ns", false},
    {"proto.decode_ns", "ns", false},
    {"dist.round_us", "us", false},
    {"dist.wire_bytes_per_msg", "bytes", false},
    {"ghs.rank_handler_invocations", "count", false},
    {"ghs.rank_tax", "ratio", false},
    {"connt.rank_tax", "ratio", false},
    {"sharded.ghs_speedup", "ratio", false},
    {"serve.session_commit_p50_ms", "ms", false},
    {"serve.session_commit_p99_ms", "ms", false},
    {"serve.transport_ms", "ms", false},
    {"serve.mutation_rtt_us", "us", false},
    {"serve.query_ms", "ms", false},
    {"serve.rebuild_commit_ms", "ms", false},
    {"serve.rebuilds", "count", false},
    {"serve.incremental_commits", "count", false},
    {"serve.nodes_touched_mean", "count", false},
};

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& m : kMetrics)
    if (name == m.name) return &m;
  return nullptr;
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const emst::support::Cli cli(
      argc, argv,
      {{"workload", "paper-csr | implicit-lean | ranks | serve-churn"},
       {"seed", "input seed (default 1)"},
       {"seconds", "measured time per run (default 10)"},
       {"trace", "0 = end-to-end metrics, 1 = traced run, per-layer metrics"},
       {"quick", "1 = tiny sizes, for the benchmark's own tests"},
       {"corrupt", "1 = damage one verified tree (negative self-check)"},
       {"trace-out", "traced runs: write the span trace to this path"},
       {"commit", "source revision, for the run stamp"}});
  Options opts;
  opts.workload = cli.get("workload", "");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.seconds = cli.get_double("seconds", 10.0);
  opts.traced = cli.get_int("trace", 0) != 0;
  opts.quick = cli.get_int("quick", 0) != 0;
  opts.corrupt = cli.get_int("corrupt", 0) != 0;
  if (!is_workload(opts.workload) || opts.seconds <= 0.0) {
    std::fprintf(stderr, "emst_perfbench: unknown workload '%s' or bad "
                         "--seconds\n",
                 opts.workload.c_str());
    return 2;
  }

  // One malloc arena: with one per thread, how much freed memory the serve
  // daemon's successive threads strand decides peak_rss_mb.
  mallopt(M_ARENA_MAX, 1);
  const int cpus = pin_cpus(1);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool untracked = build_type != "Release";
  std::printf("stamp workload=%s seed=%llu trace=%d quick=%d build_type=%s%s "
              "compiler=\"%s\" nproc=%ld pinned_cpus=%d commit=%s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.traced ? 1 : 0, opts.quick ? 1 : 0, build_type.c_str(),
              untracked ? " untracked=true" : "", PERFBENCH_COMPILER,
              sysconf(_SC_NPROCESSORS_ONLN), cpus,
              cli.get("commit", "unknown").c_str());

  Result result(opts.traced);
  run_workload(opts, result);

  for (const auto& [name, v] : result.values) {
    const MetricDef* def = find_metric(name);
    std::printf("metric %-30s %.6g %s (samples=%zu)%s\n", name.c_str(),
                v.value, def != nullptr ? def->unit : "?", v.samples,
                def != nullptr && def->end_to_end == !opts.traced
                    ? ""
                    : "  [report only]");
  }
  for (const std::string& f : result.failures)
    std::printf("FAILED %s\n", f.c_str());
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              result.attempted > 0
                  ? static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
                  : 0.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  if (opts.traced) {
    const std::string path = cli.get("trace-out", "");
    if (!path.empty()) {
      std::ofstream os(path);
      result.spans.write_jsonl(os);
      if (!os) std::fprintf(stderr, "emst_perfbench: cannot write %s\n",
                            path.c_str());
    }
    // Driver spans and their unattributed (self) time, for the reader.
    const auto& spans = result.spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name.rfind("driver.", 0) == 0)
        std::printf("span %-24s %.6f s, unattributed %.6f s\n",
                    spans[i].name.c_str(), spans[i].end_s - spans[i].start_s,
                    result.spans.self_time(static_cast<int>(i)));
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    if (m.end_to_end == opts.traced) continue;
    // A layer the workload does not exercise reads 0 (README.md).
    const auto it = result.values.find(m.name);
    const double v = it != result.values.end() ? it->second.value : 0.0;
    line += first ? "" : ", ";
    first = false;
    line.append("\"").append(m.name).append("\": {\"value\": ");
    line.append(json_number(v)).append(", \"unit\": \"").append(m.unit);
    line.append("\"}");
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
