// The four workloads of the repository benchmark (perfbench/README.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;   ///< per-layer run instead of the end-to-end run
  bool quick = false;    ///< tiny sizes, for the benchmark's own tests
  bool corrupt = false;  ///< negative self-check: damage one verified tree
};

/// What one run measured and checked. Metric names must be declared in
/// kMetrics (main.cpp); values are looked up by name there.
struct Result {
  explicit Result(bool traced) : spans(traced) {}

  struct Value {
    double value = 0.0;
    std::size_t samples = 1;
  };
  std::map<std::string, Value> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  SpanRecorder spans;

  void set(const std::string& name, double value, std::size_t samples = 1) {
    values[name] = Value{value, samples};
  }
  /// Count `ops` operations, failed unless `ok`.
  void check(bool ok, const std::string& what, std::uint64_t ops = 1) {
    attempted += ops;
    if (!ok) {
      failed += ops;
      failures.push_back(what);
    }
  }
};

[[nodiscard]] bool is_workload(const std::string& name);
void run_workload(const Options& opts, Result& out);

}  // namespace perfbench
