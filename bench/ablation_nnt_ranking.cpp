// Ablation bench for the Co-NNT ranking scheme (paper §VI):
// the diagonal (x+y, y) ranking vs the axis (x, y) ranking of [15].
//
// The paper's point: with the axis ranking "there are few nodes that need to
// go far away to find the nearest node of higher rank", breaking the
// Θ(√(log n/n)) unit-disk bound; the diagonal ranking fixes it. Expect the
// axis scheme to show larger max probe radii and higher tail energy while
// both stay O(1)-approximate.
#include <cstdio>
#include <iostream>

#include "emst/geometry/sampling.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
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
  const auto ns64 = cli.get_int_list("ns", {500, 2000, 8000});
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 10));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));

  std::printf("Co-NNT ranking ablation: diagonal (paper SVI) vs axis [15]\n\n");

  support::Table table({"n", "scheme", "energy", "msgs/n", "max_edge",
                        "max_edge/connectivity_r", "len_ratio_vs_MST"});
  table.set_precision(3, 1);

  for (const auto n64 : ns64) {
    const auto n = static_cast<std::size_t>(n64);
    for (const nnt::RankScheme scheme :
         {nnt::RankScheme::kDiagonal, nnt::RankScheme::kAxis}) {
      struct Out {
        double energy, per_node_msgs, max_edge, ratio;
      };
      std::vector<Out> outs(trials);
      support::parallel_for(trials, [&](std::size_t t) {
        support::Rng rng(support::Rng::stream_seed(seed ^ n, t));
        const auto points = geometry::uniform_points(n, rng);
        const sim::Topology topo(points, rgg::connectivity_radius(n));
        nnt::CoNntOptions options;
        options.scheme = scheme;
        const auto result = nnt::run_connt(topo, {}, options);
        const auto mst = rgg::euclidean_mst(points);
        outs[t] = {result.totals.energy,
                   static_cast<double>(result.totals.messages()) /
                       static_cast<double>(n),
                   result.max_connect_distance,
                   graph::tree_cost(points, result.tree, 1.0) /
                       graph::tree_cost(points, mst, 1.0)};
      });
      support::RunningStats energy;
      support::RunningStats msgs;
      support::RunningStats max_edge;
      support::RunningStats ratio;
      for (const Out& o : outs) {
        energy.add(o.energy);
        msgs.add(o.per_node_msgs);
        max_edge.add(o.max_edge);
        ratio.add(o.ratio);
      }
      table.add_row({static_cast<long long>(n),
                     std::string(scheme == nnt::RankScheme::kDiagonal
                                     ? "diagonal"
                                     : "axis"),
                     energy.mean(), msgs.mean(), max_edge.mean(),
                     max_edge.mean() / rgg::connectivity_radius(n),
                     ratio.mean()});
    }
  }
  table.print(std::cout);
  if (cli.has("csv")) table.save_csv(cli.get("csv", ""));
  std::printf("\nreading guide: axis max_edge/connectivity_r >> 1 is exactly "
              "why SVI replaced the [15] ranking in the unit-disk model.\n");
  return 0;
}
