// Figure- and table-level experiment drivers (§VII reproduction).
//
// Each bench binary under bench/ calls one of these and prints the rows the
// paper reports; the functions return structured data so tests can assert
// the paper's qualitative claims (ordering, slopes, approximation ratios).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "emst/harness/experiment.hpp"
#include "emst/percolation/analysis.hpp"
#include "emst/support/stats.hpp"
#include "emst/support/table.hpp"

namespace emst::harness {

// ---------------------------------------------------------------------- Fig 3

struct Fig3Point {
  std::size_t n = 0;
  double ghs_energy = 0.0;
  double ghs_sem = 0.0;
  double eopt_energy = 0.0;
  double eopt_sem = 0.0;
  double connt_energy = 0.0;
  double connt_sem = 0.0;
  double ghs_messages = 0.0;
  double eopt_messages = 0.0;
  double connt_messages = 0.0;
  std::size_t ghs_exact = 0;    ///< trials where GHS matched Kruskal
  std::size_t eopt_exact = 0;
  std::size_t connt_spanning = 0;
  std::size_t trials = 0;
};

struct Fig3Data {
  std::vector<Fig3Point> points;

  /// Least-squares slope of log(mean energy) vs log(log n) per algorithm —
  /// the quantity Figure 3(b) eyeballs (expected ≈ 2 / 1 / 0).
  [[nodiscard]] support::LineFit ghs_fit() const;
  [[nodiscard]] support::LineFit eopt_fit() const;
  [[nodiscard]] support::LineFit connt_fit() const;
};

/// Energy-vs-n sweep for all three algorithms on shared instances.
[[nodiscard]] Fig3Data run_fig3(const std::vector<std::size_t>& ns,
                                std::size_t trials, std::uint64_t seed,
                                double alpha = 2.0);

[[nodiscard]] support::Table fig3a_table(const Fig3Data& data);
[[nodiscard]] support::Table fig3b_table(const Fig3Data& data);

// ------------------------------------------------------------- Tab A (§VII)

struct TabARow {
  std::size_t n = 0;
  double connt_len = 0.0;   ///< Σ|e| of Co-NNT (paper: 22.9 / 50.5)
  double mst_len = 0.0;     ///< Σ|e| of MST   (paper: 20.8 / 46.3)
  double connt_sq = 0.0;    ///< Σ|e|² of Co-NNT (paper: ≈0.68)
  double mst_sq = 0.0;      ///< Σ|e|² of MST    (paper: ≈0.52)
  double ratio_len = 0.0;
  double ratio_sq = 0.0;
  std::size_t trials = 0;
};

[[nodiscard]] std::vector<TabARow> run_taba(const std::vector<std::size_t>& ns,
                                            std::size_t trials,
                                            std::uint64_t seed);

[[nodiscard]] support::Table taba_table(const std::vector<TabARow>& rows);

// ------------------------------------------------- Fig 1 / Thm 5.2 sweep

struct PercolationRow {
  std::size_t n = 0;
  double c1_factor = 0.0;   ///< radius factor: r = c1_factor·√(1/n)
  double giant_fraction = 0.0;
  double second_component = 0.0;     ///< mean largest non-giant size
  double small_region_nodes = 0.0;   ///< mean max small-region population
  double log2n = 0.0;                ///< ln² n, the Thm 5.2 bound scale
  double good_fraction = 0.0;        ///< mean site-occupation probability
  double trapped_fraction = 0.0;     ///< trials where Thm 5.2's trapping held
  std::size_t trials = 0;
};

[[nodiscard]] std::vector<PercolationRow> run_percolation(
    const std::vector<std::size_t>& ns, const std::vector<double>& factors,
    std::size_t trials, std::uint64_t seed);

[[nodiscard]] support::Table percolation_table(
    const std::vector<PercolationRow>& rows);

}  // namespace emst::harness
