#include "emst/harness/figures.hpp"

#include <cmath>

#include "emst/geometry/sampling.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/support/parallel.hpp"
#include "emst/support/rng.hpp"

namespace emst::harness {
namespace {

support::LineFit fit_loglog(const std::vector<Fig3Point>& points,
                            double Fig3Point::* member) {
  std::vector<double> x;
  std::vector<double> y;
  for (const Fig3Point& p : points) {
    const double energy = p.*member;
    if (energy <= 0.0 || p.n < 3) continue;
    x.push_back(std::log(std::log(static_cast<double>(p.n))));
    y.push_back(std::log(energy));
  }
  return support::fit_line(x, y);
}

}  // namespace

support::LineFit Fig3Data::ghs_fit() const {
  return fit_loglog(points, &Fig3Point::ghs_energy);
}
support::LineFit Fig3Data::eopt_fit() const {
  return fit_loglog(points, &Fig3Point::eopt_energy);
}
support::LineFit Fig3Data::connt_fit() const {
  return fit_loglog(points, &Fig3Point::connt_energy);
}

Fig3Data run_fig3(const std::vector<std::size_t>& ns, std::size_t trials,
                  std::uint64_t seed, double alpha) {
  Fig3Data data;
  for (const std::size_t n : ns) {
    InstanceConfig config;
    config.n = n;
    config.alpha = alpha;
    const SweepPoint sweep = run_sweep_point(config, trials, seed ^ (n * 0x9e37ULL));
    Fig3Point point;
    point.n = n;
    point.trials = sweep.trials;
    point.ghs_energy = sweep.ghs.energy.mean();
    point.ghs_sem = sweep.ghs.energy.sem();
    point.eopt_energy = sweep.eopt.energy.mean();
    point.eopt_sem = sweep.eopt.energy.sem();
    point.connt_energy = sweep.connt.energy.mean();
    point.connt_sem = sweep.connt.energy.sem();
    point.ghs_messages = sweep.ghs.messages.mean();
    point.eopt_messages = sweep.eopt.messages.mean();
    point.connt_messages = sweep.connt.messages.mean();
    point.ghs_exact = sweep.ghs.exact_count;
    point.eopt_exact = sweep.eopt.exact_count;
    point.connt_spanning = sweep.connt.spanning_count;
    data.points.push_back(point);
  }
  return data;
}

support::Table fig3a_table(const Fig3Data& data) {
  support::Table table({"n", "GHS", "GHS±", "EOPT", "EOPT±", "Co-NNT", "Co-NNT±",
                        "GHS_msgs", "EOPT_msgs", "CoNNT_msgs", "exact", "trials"});
  for (const Fig3Point& p : data.points) {
    table.add_row({static_cast<long long>(p.n), p.ghs_energy, p.ghs_sem,
                   p.eopt_energy, p.eopt_sem, p.connt_energy, p.connt_sem,
                   p.ghs_messages, p.eopt_messages, p.connt_messages,
                   std::string(std::to_string(p.ghs_exact) + "/" +
                               std::to_string(p.eopt_exact) + "/" +
                               std::to_string(p.trials)),
                   static_cast<long long>(p.trials)});
  }
  return table;
}

support::Table fig3b_table(const Fig3Data& data) {
  support::Table table({"n", "loglog_n", "log_GHS", "log_EOPT", "log_CoNNT"});
  for (const Fig3Point& p : data.points) {
    if (p.n < 3) continue;
    table.add_row({static_cast<long long>(p.n),
                   std::log(std::log(static_cast<double>(p.n))),
                   p.ghs_energy > 0 ? std::log(p.ghs_energy) : 0.0,
                   p.eopt_energy > 0 ? std::log(p.eopt_energy) : 0.0,
                   p.connt_energy > 0 ? std::log(p.connt_energy) : 0.0});
  }
  return table;
}

std::vector<TabARow> run_taba(const std::vector<std::size_t>& ns,
                              std::size_t trials, std::uint64_t seed) {
  std::vector<TabARow> rows;
  for (const std::size_t n : ns) {
    InstanceConfig config;
    config.n = n;
    config.run_ghs = false;
    config.run_eopt = false;
    const SweepPoint sweep = run_sweep_point(config, trials, seed ^ (n * 0x7f4aULL));
    TabARow row;
    row.n = n;
    row.trials = sweep.trials;
    row.connt_len = sweep.connt.tree_len.mean();
    row.mst_len = sweep.mst_len.mean();
    row.connt_sq = sweep.connt.tree_sq.mean();
    row.mst_sq = sweep.mst_sq.mean();
    row.ratio_len = row.mst_len > 0 ? row.connt_len / row.mst_len : 0.0;
    row.ratio_sq = row.mst_sq > 0 ? row.connt_sq / row.mst_sq : 0.0;
    rows.push_back(row);
  }
  return rows;
}

support::Table taba_table(const std::vector<TabARow>& rows) {
  support::Table table({"n", "CoNNT_sum|e|", "MST_sum|e|", "ratio",
                        "CoNNT_sum|e|^2", "MST_sum|e|^2", "ratio^2", "trials"});
  table.set_precision(1, 1);
  table.set_precision(2, 1);
  for (const TabARow& r : rows) {
    table.add_row({static_cast<long long>(r.n), r.connt_len, r.mst_len,
                   r.ratio_len, r.connt_sq, r.mst_sq, r.ratio_sq,
                   static_cast<long long>(r.trials)});
  }
  return table;
}

std::vector<PercolationRow> run_percolation(const std::vector<std::size_t>& ns,
                                            const std::vector<double>& factors,
                                            std::size_t trials,
                                            std::uint64_t seed) {
  std::vector<PercolationRow> rows;
  for (const std::size_t n : ns) {
    for (const double factor : factors) {
      struct TrialOut {
        percolation::Report report;
      };
      std::vector<TrialOut> outs(trials);
      support::parallel_for(trials, [&](std::size_t trial) {
        support::Rng rng(support::Rng::stream_seed(
            seed ^ (n * 0x51edULL) ^ static_cast<std::uint64_t>(factor * 1000),
            trial));
        const auto instance =
            rgg::random_rgg(n, rgg::percolation_radius(n, factor), rng);
        outs[trial].report = percolation::analyze(instance);
      });
      PercolationRow row;
      row.n = n;
      row.c1_factor = factor;
      row.trials = trials;
      const double ln = std::log(static_cast<double>(n));
      row.log2n = ln * ln;
      support::RunningStats giant;
      support::RunningStats second;
      support::RunningStats region;
      support::RunningStats good;
      std::size_t trapped = 0;
      for (const TrialOut& out : outs) {
        giant.add(out.report.giant_fraction);
        second.add(static_cast<double>(out.report.second_component));
        region.add(static_cast<double>(out.report.largest_small_region_nodes));
        good.add(out.report.good_fraction);
        if (out.report.small_components_trapped) ++trapped;
      }
      row.giant_fraction = giant.mean();
      row.second_component = second.mean();
      row.small_region_nodes = region.mean();
      row.good_fraction = good.mean();
      row.trapped_fraction =
          trials == 0 ? 0.0
                      : static_cast<double>(trapped) / static_cast<double>(trials);
      rows.push_back(row);
    }
  }
  return rows;
}

support::Table percolation_table(const std::vector<PercolationRow>& rows) {
  support::Table table({"n", "c1_factor", "giant_frac", "2nd_comp",
                        "region_nodes", "ln^2_n", "good_frac", "trapped",
                        "trials"});
  table.set_precision(1, 2);
  for (const PercolationRow& r : rows) {
    table.add_row({static_cast<long long>(r.n), r.c1_factor, r.giant_fraction,
                   r.second_component, r.small_region_nodes, r.log2n,
                   r.good_fraction, r.trapped_fraction,
                   static_cast<long long>(r.trials)});
  }
  return table;
}

}  // namespace emst::harness
