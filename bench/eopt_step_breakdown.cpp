// Theorem 5.3's accounting structure, measured per step: EOPT's energy bill
// split into Step 1 (modified GHS at r₁ = √(c₁/n)), the fragment-size census
// (one broadcast + one convergecast), and Step 2 (modified GHS at
// r₂ = √(c₂ ln n / n) with a passive giant).
//
// The §V-C analysis predicts: Step 1 = Θ(log n) (Θ(n log n) messages at
// Θ(1/n) each), census = Θ(1) (Θ(n) messages at Θ(1/n) each), Step 2 =
// Θ(log n) expected (dominated by the one-time announcement round; the small
// regions themselves contribute O(log n) in total). Also reported: the
// Step-1 fragment count and giant size, which drive the Step-2 bound.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/parallel.hpp"
#include "emst/support/rng.hpp"
#include "emst/support/stats.hpp"
#include "emst/support/table.hpp"

int main(int argc, char** argv) {
  using namespace emst;
  const support::Cli cli(argc, argv,
                         {{"ns", "comma-separated node counts"},
                          {"trials", "trials (default 10)"},
                          {"seed", "master seed (default 2008)"},
                          {"csv", "write CSV to this path"}});
  const auto ns64 = cli.get_int_list("ns", {250, 500, 1000, 2000, 4000, 8000});
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 10));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));

  std::printf("EOPT per-step energy (Thm 5.3 structure): step1 ~ ln n, "
              "census ~ O(1), step2 ~ ln n\n\n");

  support::Table table({"n", "ln_n", "step1", "census", "step2", "total",
                        "step1_frags", "giant_frac", "phases_1+2"});
  table.set_precision(1, 2);
  table.set_precision(7, 3);

  for (const auto n64 : ns64) {
    const auto n = static_cast<std::size_t>(n64);
    struct Out {
      double s1, cz, s2, frags, giant, phases;
    };
    std::vector<Out> outs(trials);
    support::parallel_for(trials, [&](std::size_t t) {
      support::Rng rng(support::Rng::stream_seed(seed ^ (n * 11), t));
      const sim::Topology topo =
          eopt::eopt_topology(geometry::uniform_points(n, rng));
      const auto result = eopt::run_eopt(topo);
      outs[t] = {result.step1.energy,
                 result.census.energy,
                 result.step2.energy,
                 static_cast<double>(result.step1_fragments),
                 static_cast<double>(result.giant_size) / static_cast<double>(n),
                 static_cast<double>(result.step1_phases + result.step2_phases)};
    });
    support::RunningStats s1;
    support::RunningStats cz;
    support::RunningStats s2;
    support::RunningStats frags;
    support::RunningStats giant;
    support::RunningStats phases;
    for (const Out& o : outs) {
      s1.add(o.s1);
      cz.add(o.cz);
      s2.add(o.s2);
      frags.add(o.frags);
      giant.add(o.giant);
      phases.add(o.phases);
    }
    table.add_row({static_cast<long long>(n), std::log(static_cast<double>(n)),
                   s1.mean(), cz.mean(), s2.mean(),
                   s1.mean() + cz.mean() + s2.mean(), frags.mean(),
                   giant.mean(), phases.mean()});
  }
  table.print(std::cout);
  if (cli.has("csv")) table.save_csv(cli.get("csv", ""));
  std::printf("\nreading guide: step1/ln n and step2/ln n roughly constant, "
              "census flat — the three Θ-terms of Thm 5.3's proof, measured "
              "separately.\n");
  return 0;
}
