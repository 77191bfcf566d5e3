// Theorem 4.1 / Lemma 4.1 scaffolding, measured empirically.
//
// Lemma 4.1: reaching the k closest neighbours costs ≥ k/(b·n) energy, i.e.
// the squared distance to the k-th nearest neighbour scales linearly in k/n.
// Theorem 4.1 combines this with the Korach–Moran–Zaks Ω(n log n) message
// bound into an Ω(log n) energy floor for any spanning-tree algorithm.
//
// This bench reports:
//  (a) mean n·d²(k-NN) vs k — should be ≈ linear in k (slope = the 1/b
//      packing constant),
//  (b) L_MST = Σ d² over the exact MST (the trivial Ω(1) floor), and
//  (c) the measured energies of GHS / EOPT against a·ln n for reference.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "emst/eopt/eopt.hpp"
#include "emst/run.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/spatial/cell_grid.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/parallel.hpp"
#include "emst/support/rng.hpp"
#include "emst/support/stats.hpp"
#include "emst/support/table.hpp"

int main(int argc, char** argv) {
  using namespace emst;
  const support::Cli cli(argc, argv,
                         {{"n", "node count (default 5000)"},
                          {"trials", "trials (default 10)"},
                          {"seed", "master seed (default 2008)"},
                          {"csv", "write CSV to this path"}});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 5000));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 10));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));

  std::printf("Thm 4.1 / Lemma 4.1: k-nearest-neighbour energy packing at "
              "n=%zu (%zu trials)\n\n", n, trials);

  const std::vector<std::size_t> ks = {1, 2, 4, 8, 16, 32, 64, 128};
  std::vector<support::RunningStats> ndk2(ks.size());
  support::RunningStats lmst;
  support::RunningStats ghs_energy;
  support::RunningStats eopt_energy;

  std::vector<std::vector<double>> trial_ndk2(trials);
  std::vector<double> trial_lmst(trials);
  std::vector<double> trial_ghs(trials);
  std::vector<double> trial_eopt(trials);
  support::parallel_for(trials, [&](std::size_t t) {
    support::Rng rng(support::Rng::stream_seed(seed, t));
    const auto points = geometry::uniform_points(n, rng);
    const spatial::CellGrid grid = spatial::CellGrid::with_auto_cell(points);
    // Mean over 200 sampled nodes of n·d²(k-th NN) for each k.
    trial_ndk2[t].assign(ks.size(), 0.0);
    const std::size_t samples = std::min<std::size_t>(200, n);
    for (std::size_t s = 0; s < samples; ++s) {
      const auto u = static_cast<spatial::PointIndex>(
          rng.uniform_int(points.size()));
      const auto knn = grid.k_nearest(points[u], ks.back(), u);
      for (std::size_t i = 0; i < ks.size(); ++i) {
        const std::size_t k = ks[i];
        if (knn.size() < k) continue;
        const double d = geometry::distance(points[u], points[knn[k - 1]]);
        trial_ndk2[t][i] += static_cast<double>(n) * d * d / samples;
      }
    }
    const auto mst = rgg::euclidean_mst(points);
    trial_lmst[t] = graph::tree_cost(points, mst, 2.0);
    const sim::Topology topo(points, rgg::connectivity_radius(n));
    trial_ghs[t] =
        emst::run(topo, emst::config_for(emst::Driver::kClassicGhs))
            .totals.energy;
    trial_eopt[t] =
        emst::run(topo, emst::config_for(emst::Driver::kEopt)).totals.energy;
  });
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < ks.size(); ++i) ndk2[i].add(trial_ndk2[t][i]);
    lmst.add(trial_lmst[t]);
    ghs_energy.add(trial_ghs[t]);
    eopt_energy.add(trial_eopt[t]);
  }

  support::Table table({"k", "n*d_k^2", "ratio_to_k", "k/n_energy_floor"});
  table.set_precision(1, 3);
  table.set_precision(2, 3);
  table.set_precision(3, 6);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    table.add_row({static_cast<long long>(ks[i]), ndk2[i].mean(),
                   ndk2[i].mean() / static_cast<double>(ks[i]),
                   static_cast<double>(ks[i]) / static_cast<double>(n)});
  }
  table.print(std::cout);
  if (cli.has("csv")) table.save_csv(cli.get("csv", ""));

  // Linearity check: n·d_k² / k should be roughly constant (Lemma 4.1).
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    xs.push_back(static_cast<double>(ks[i]));
    ys.push_back(ndk2[i].mean());
  }
  const auto fit = support::fit_line(xs, ys);
  std::printf("\nLemma 4.1: n*d_k^2 ~ k/b with 1/b = %.3f (R^2 = %.3f; "
              "linear => packing bound holds)\n", fit.slope, fit.r2);

  // Korach–Moran–Zaks side of Thm 4.1: distinct communication pairs used by
  // a real spanning-tree construction vs the Ω(n log n) bound.
  {
    support::Rng rng(support::Rng::stream_seed(seed, 9999));
    const sim::Topology topo(geometry::uniform_points(n, rng),
                             rgg::connectivity_radius(n));
    ghs::TxLog log;
    ghs::SyncGhsOptions options;
    options.transmission_log = &log;
    (void)ghs::run_sync_ghs(topo, {}, options);
    const std::size_t pairs = ghs::distinct_pairs_used(topo, log);
    const double n_log_n =
        static_cast<double>(n) * std::log(static_cast<double>(n));
    std::printf("KMZ bound: modified GHS exercised %zu distinct pairs = "
                "%.2f * n*ln n (theorem: >= a * n*log n for ANY ST "
                "algorithm)\n", pairs,
                static_cast<double>(pairs) / n_log_n);
  }
  std::printf("Omega(1) floor  L_MST = %.3f (energy of ANY algorithm must "
              "exceed this)\n", lmst.mean());
  std::printf("measured: GHS = %.2f, EOPT = %.2f, a*ln n = %.2f (Omega(log n) "
              "scale)\n", ghs_energy.mean(), eopt_energy.mean(),
              std::log(static_cast<double>(n)));
  std::printf("verdict: L_MST <= EOPT (%s), EOPT >= ln n scale (%s)\n",
              lmst.mean() <= eopt_energy.mean() ? "yes" : "NO",
              eopt_energy.mean() >= std::log(static_cast<double>(n)) ? "yes"
                                                                     : "NO");
  return 0;
}
