// Network lifetime — the battery-centric view the paper's motivation implies
// but its TOTAL-energy metric hides: the first node to exhaust its battery
// ends the network, so the relevant statistic is the HOTTEST node's
// transmit-energy, not the sum.
//
// Reported per algorithm: total energy, max per-node energy, the max/mean
// imbalance ratio, and the p99 node. Expected shape: EOPT wins on the total
// by design, and its per-node ledger is also far flatter than GHS's (no node
// pays the Θ(|E|) test traffic); Co-NNT is flattest of all — every node does
// O(1) probes in expectation.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/run.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/parallel.hpp"
#include "emst/support/rng.hpp"
#include "emst/support/stats.hpp"
#include "emst/support/table.hpp"

int main(int argc, char** argv) {
  using namespace emst;
  const support::Cli cli(argc, argv,
                         {{"ns", "comma-separated node counts"},
                          {"trials", "trials (default 8)"},
                          {"seed", "master seed (default 2008)"},
                          {"csv", "write CSV to this path"}});
  const auto ns64 = cli.get_int_list("ns", {500, 2000, 8000});
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 8));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));

  std::printf("network lifetime: per-node transmit-energy ledgers (hottest "
              "node bounds the lifetime)\n\n");

  support::Table table({"n", "algorithm", "total_E", "hottest_node",
                        "p99_node", "max/mean"});
  table.set_precision(3, 5);
  table.set_precision(4, 5);
  table.set_precision(5, 1);

  for (const auto n64 : ns64) {
    const auto n = static_cast<std::size_t>(n64);
    enum Algo { kGhs, kEopt, kConnt, kAlgoCount };
    const char* names[kAlgoCount] = {"GHS", "EOPT", "Co-NNT"};
    struct Out {
      double total[kAlgoCount];
      double hottest[kAlgoCount];
      double p99[kAlgoCount];
      double imbalance[kAlgoCount];
    };
    std::vector<Out> outs(trials);
    support::parallel_for(trials, [&](std::size_t t) {
      support::Rng rng(support::Rng::stream_seed(seed ^ (n * 29), t));
      const sim::Topology topo(geometry::uniform_points(n, rng),
                               rgg::connectivity_radius(n));
      auto digest = [&](Algo a, double total, std::vector<double> ledger) {
        std::sort(ledger.begin(), ledger.end());
        const double hottest = ledger.empty() ? 0.0 : ledger.back();
        const double mean = total / static_cast<double>(n);
        outs[t].total[a] = total;
        outs[t].hottest[a] = hottest;
        outs[t].p99[a] = support::quantile_sorted(ledger, 0.99);
        outs[t].imbalance[a] = mean > 0.0 ? hottest / mean : 0.0;
      };
      for (const auto& [algo, driver] :
           {std::pair{kGhs, Driver::kClassicGhs},
            std::pair{kEopt, Driver::kEopt},
            std::pair{kConnt, Driver::kCoNnt}}) {
        RunConfig cfg = config_for(driver);
        cfg.track_per_node_energy = true;
        const RunResult res = run(topo, cfg);
        digest(algo, res.totals.energy, res.per_node_energy);
      }
    });
    for (int a = 0; a < kAlgoCount; ++a) {
      support::RunningStats total;
      support::RunningStats hottest;
      support::RunningStats p99;
      support::RunningStats imbalance;
      for (const Out& o : outs) {
        total.add(o.total[a]);
        hottest.add(o.hottest[a]);
        p99.add(o.p99[a]);
        imbalance.add(o.imbalance[a]);
      }
      table.add_row({static_cast<long long>(n), std::string(names[a]),
                     total.mean(), hottest.mean(), p99.mean(),
                     imbalance.mean()});
    }
  }
  table.print(std::cout);
  if (cli.has("csv")) table.save_csv(cli.get("csv", ""));
  std::printf("\nreading guide: the hottest-node column is the lifetime "
              "bound; max/mean is the load imbalance — an algorithm could "
              "win the total yet lose the lifetime, so both views matter "
              "when the motivation is batteries.\n");
  return 0;
}
