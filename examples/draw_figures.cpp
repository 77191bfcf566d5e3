// Regenerate the paper's qualitative figures as SVG files.
//
//   ./draw_figures [--n=2000] [--seed=29] [--outdir=figures]
//
// Produces:
//   fig1_giant_component.svg — the Fig-1 picture: the percolation-regime
//       deployment with the good-cell backbone shaded and the giant
//       component's nodes highlighted against the trapped small components;
//   mst_vs_connt.svg — the exact MST (EOPT output) and the Co-NNT
//       approximation side by side on the same deployment (overlaid colors);
//   eopt_steps.svg — EOPT Step-1 fragment forest vs the completed MST.
#include <cstdio>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/percolation/analysis.hpp"
#include "emst/rgg/components.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/rng.hpp"
#include "emst/viz/svg.hpp"

int main(int argc, char** argv) {
  using namespace emst;
  const support::Cli cli(argc, argv,
                         {{"n", "number of nodes (default 2000)"},
                          {"seed", "deployment seed (default 29)"},
                          {"outdir", "output directory (default figures)"}});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 2000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 29));
  const std::string outdir = cli.get("outdir", "figures");

  support::Rng rng(seed);
  const auto points = geometry::uniform_points(n, rng);

  // --- Figure 1: giant component in the percolation regime ---------------
  {
    const auto instance =
        rgg::build_rgg(points, rgg::percolation_radius(n, 1.4));
    const percolation::CellField field(instance.points, instance.radius);
    const auto comps = rgg::connected_components(instance.graph);
    const auto giant = comps.giant();
    std::vector<std::size_t> giant_nodes;
    std::vector<std::size_t> small_nodes;
    for (std::size_t u = 0; u < n; ++u) {
      (comps.label[u] == giant ? giant_nodes : small_nodes).push_back(u);
    }
    viz::SvgCanvas canvas;
    canvas.draw_cell_field(field, "#dde8f7", "#f3f3f3");
    canvas.draw_edges(instance.points, instance.graph.edges(), 0.5, "#b9cbe8");
    canvas.draw_point_subset(instance.points, giant_nodes, 1.6, "#1f5fbf");
    canvas.draw_point_subset(instance.points, small_nodes, 1.6, "#d0342c");
    canvas.draw_label({0.01, 1.02},
                      "Fig 1: giant component (blue) and trapped small "
                      "components (red), r = 1.4*sqrt(1/n)");
    canvas.save(outdir + "/fig1_giant_component.svg");
    std::printf("fig1_giant_component.svg: giant %zu/%zu nodes, %zu "
                "components\n", comps.giant_size(), n, comps.count);
  }

  // --- MST vs Co-NNT ------------------------------------------------------
  const sim::Topology topo(points, rgg::connectivity_radius(n));
  const auto eopt = eopt::run_eopt(topo);
  {
    const auto connt = nnt::run_connt(topo);
    viz::SvgCanvas canvas;
    canvas.draw_edges(points, eopt.run.tree, 1.4, "#1f5fbf");
    canvas.draw_edges(points, connt.tree, 0.7, "#d0342c");
    canvas.draw_points(points, 1.2, "#222");
    canvas.draw_label({0.01, 1.02},
                      "exact MST (blue, EOPT) vs Co-NNT (red) on one "
                      "deployment");
    canvas.save(outdir + "/mst_vs_connt.svg");
    std::printf("mst_vs_connt.svg: MST %zu edges, Co-NNT %zu edges\n",
                eopt.run.tree.size(), connt.tree.size());
  }

  // --- EOPT step structure -------------------------------------------------
  {
    ghs::SyncGhsOptions step1;
    step1.radius = rgg::percolation_radius(n, 1.4);
    const auto stage1 = ghs::run_sync_ghs(topo, {}, step1);
    viz::SvgCanvas canvas;
    canvas.draw_edges(points, eopt.run.tree, 0.6, "#c9c9c9");
    canvas.draw_edges(points, stage1.run.tree, 1.6, "#1f5fbf");
    canvas.draw_points(points, 1.2, "#222");
    canvas.draw_label({0.01, 1.02},
                      "EOPT Step-1 fragment forest (blue) inside the final "
                      "MST (grey)");
    canvas.save(outdir + "/eopt_steps.svg");
    std::printf("eopt_steps.svg: step-1 forest %zu edges (%zu fragments), "
                "final MST %zu edges\n", stage1.run.tree.size(),
                stage1.run.fragments, eopt.run.tree.size());
  }
  return 0;
}
