// Robustness sweep: the paper's results under non-uniform deployments.
//
// Every theorem in the paper assumes i.i.d. uniform nodes. This bench
// re-runs the headline comparison (GHS vs EOPT vs Co-NNT energy, exactness,
// Step-1 giant emergence) on five deployment models (geometry/deployments)
// and reports where the uniform story bends:
//  - clustered fields percolate EARLIER locally but may strand clusters;
//  - a coverage hole splits the giant or blocks connectivity entirely;
//  - the density gradient stresses Co-NNT's diagonal ranking geometry.
#include <cstdio>
#include <iostream>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/deployments.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
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
                         {{"n", "node count (default 2000)"},
                          {"trials", "trials (default 8)"},
                          {"seed", "master seed (default 2008)"},
                          {"csv", "write CSV to this path"}});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 2000));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 8));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));

  std::printf("deployment robustness at n=%zu: does the paper's story "
              "survive non-uniform fields?\n\n", n);

  support::Table table({"deployment", "connected", "GHS", "EOPT", "Co-NNT",
                        "EOPT_exact", "giant_frac", "CoNNT_len_ratio"});
  table.set_precision(6, 3);
  table.set_precision(7, 3);

  for (const geometry::Deployment model : geometry::all_deployments()) {
    struct Out {
      double ghs = 0.0, eopt = 0.0, connt = 0.0, giant = 0.0, ratio = 0.0;
      bool connected = false, exact = false;
    };
    std::vector<Out> outs(trials);
    support::parallel_for(trials, [&](std::size_t t) {
      support::Rng rng(support::Rng::stream_seed(
          seed ^ static_cast<std::uint64_t>(model), t));
      const auto points = geometry::sample_deployment(model, n, rng);
      const sim::Topology topo(points, rgg::connectivity_radius(n));
      const auto reference = graph::kruskal_msf(n, topo.graph().edges());
      Out& out = outs[t];
      out.connected = reference.size() == n - 1;
      out.ghs = run(topo, config_for(Driver::kClassicGhs)).totals.energy;
      const auto eo = eopt::run_eopt(topo);
      out.eopt = eo.run.totals.energy;
      out.exact = graph::same_edge_set(eo.run.tree, reference);
      out.giant = static_cast<double>(eo.giant_size) / static_cast<double>(n);
      const auto co = run(topo, config_for(Driver::kCoNnt));
      out.connt = co.totals.energy;
      const double ref_len = graph::tree_cost(points, reference, 1.0);
      out.ratio = ref_len > 0.0
                      ? graph::tree_cost(points, co.tree, 1.0) / ref_len
                      : 0.0;
    });
    support::RunningStats ghs_e;
    support::RunningStats eopt_e;
    support::RunningStats connt_e;
    support::RunningStats giant;
    support::RunningStats ratio;
    std::size_t connected = 0;
    std::size_t exact = 0;
    for (const Out& o : outs) {
      ghs_e.add(o.ghs);
      eopt_e.add(o.eopt);
      connt_e.add(o.connt);
      giant.add(o.giant);
      ratio.add(o.ratio);
      if (o.connected) ++connected;
      if (o.exact) ++exact;
    }
    table.add_row({std::string(geometry::deployment_name(model)),
                   std::string(std::to_string(connected) + "/" +
                               std::to_string(trials)),
                   ghs_e.mean(), eopt_e.mean(), connt_e.mean(),
                   std::string(std::to_string(exact) + "/" +
                               std::to_string(trials)),
                   giant.mean(), ratio.mean()});
  }
  table.print(std::cout);
  if (cli.has("csv")) table.save_csv(cli.get("csv", ""));
  std::printf("\nreading guide: EOPT stays exact (it never assumed "
              "uniformity — only Thm 5.2's ENERGY bound did); the energy "
              "ordering survives every model; Co-NNT's ratio is the number "
              "to watch under the gradient (its potential-angle lemma is "
              "uniform-specific).\n");
  return 0;
}
