// Uniform per-trial runners for the three algorithms the paper evaluates
// (§VII): classical GHS, EOPT, Co-NNT — all on the *same* sampled instance,
// plus the exact-MST reference costs. Multi-trial aggregation runs trials
// thread-parallel with deterministic per-trial stream seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/deployments.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/support/stats.hpp"

namespace emst::harness {

/// Outcome of one algorithm on one instance.
struct AlgoOutcome {
  double energy = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::size_t phases = 0;
  double tree_len = 0.0;    ///< Σ|e| over the produced tree/forest
  double tree_sq = 0.0;     ///< Σ|e|²
  std::size_t tree_edges = 0;
  bool spanning = false;    ///< spans the whole point set
  bool exact_mst = false;   ///< edge-for-edge equal to the Kruskal reference
};

struct InstanceConfig {
  std::size_t n = 1000;
  std::uint64_t seed = 1;
  /// Radius factor for GHS and EOPT Step 2 (paper: 1.6, natural log).
  double connectivity_factor = 1.6;
  /// Path-loss exponent applied to ALL algorithms' energy accounting
  /// (paper: α = 2; the model generalizes, §II).
  double alpha = 2.0;
  /// Deployment model (paper: uniform).
  geometry::Deployment deployment = geometry::Deployment::kUniform;
  bool run_ghs = true;
  bool run_eopt = true;
  bool run_connt = true;
};

struct InstanceResults {
  std::optional<AlgoOutcome> ghs;
  std::optional<AlgoOutcome> eopt;
  std::optional<AlgoOutcome> connt;
  std::optional<eopt::EoptResult> eopt_detail;
  double mst_len = 0.0;  ///< exact Euclidean MST Σ|e|
  double mst_sq = 0.0;   ///< exact Euclidean MST Σ|e|²
  bool graph_connected = false;  ///< r₂-visibility graph was connected
};

/// Sample one instance and run the selected algorithms on it.
[[nodiscard]] InstanceResults run_instance(const InstanceConfig& config);

/// Aggregate of one metric across trials.
struct Aggregate {
  support::RunningStats energy;
  support::RunningStats messages;
  support::RunningStats rounds;
  support::RunningStats tree_len;
  support::RunningStats tree_sq;
  std::size_t exact_count = 0;
  std::size_t spanning_count = 0;
  std::size_t trials = 0;

  void add(const AlgoOutcome& outcome);
  void merge(const Aggregate& other);
};

struct SweepPoint {
  std::size_t n = 0;
  Aggregate ghs;
  Aggregate eopt;
  Aggregate connt;
  support::RunningStats mst_len;
  support::RunningStats mst_sq;
  std::size_t connected_count = 0;
  std::size_t trials = 0;
};

/// Run `trials` instances at size n (thread-parallel, deterministic seeds
/// derived from `master_seed`) and aggregate.
[[nodiscard]] SweepPoint run_sweep_point(const InstanceConfig& base,
                                         std::size_t trials,
                                         std::uint64_t master_seed);

}  // namespace emst::harness
