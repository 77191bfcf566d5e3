// Mobility — the other §I dynamism driver ("the topology of these networks
// can change frequently due to mobility or node failures").
//
//   ./mobility [--n=1000] [--epochs=10] [--speed=2] [--seed=31]
//
// A random-waypoint-style field: each epoch, every node drifts by a random
// step of scale speed·r. The MST must be maintained. Two maintenance
// strategies over the same trajectory:
//   - rebuild: run EOPT from scratch every epoch;
//   - repair: keep the still-valid MST edges (those that survive as edges
//     of the new MST candidate set under the cycle property — here
//     approximated by "still within radio range"), seed EOPT with them.
// Both must produce the exact MST of every epoch's configuration; the bill
// is the cumulative construction energy across epochs.
#include <cstdio>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/graph/union_find.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/rng.hpp"

int main(int argc, char** argv) {
  using namespace emst;
  const support::Cli cli(argc, argv,
                         {{"n", "number of nodes (default 1000)"},
                          {"epochs", "mobility epochs (default 10)"},
                          {"speed", "drift per epoch in radio-range units x100 (default 20)"},
                          {"seed", "seed (default 31)"}});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 1000));
  const auto epochs = static_cast<std::size_t>(cli.get_int("epochs", 10));
  const double speed = static_cast<double>(cli.get_int("speed", 20)) / 100.0;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 31));

  support::Rng rng(seed);
  auto points = geometry::uniform_points(n, rng);
  const double r = rgg::connectivity_radius(n);
  const double step = speed * r;

  double rebuild_total = 0.0;
  double repair_total = 0.0;
  std::vector<graph::Edge> previous_tree;  // repair strategy's carried state
  std::size_t repaired_exact = 0;
  std::size_t carried_edges = 0;

  std::printf("mobility: %zu nodes, %zu epochs, drift %.0f%% of radio range "
              "per epoch\n\n", n, epochs, 100.0 * speed);
  std::printf("%-6s %14s %14s %12s %10s\n", "epoch", "rebuild_E", "repair_E",
              "kept_edges", "exact");

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    // Drift (reflecting at the walls).
    if (epoch > 0) {
      for (geometry::Point2& p : points) {
        p.x += rng.uniform(-step, step);
        p.y += rng.uniform(-step, step);
        p.x = std::fabs(p.x);
        p.y = std::fabs(p.y);
        if (p.x > 1.0) p.x = 2.0 - p.x;
        if (p.y > 1.0) p.y = 2.0 - p.y;
      }
    }
    const sim::Topology topo(points, r);
    const auto reference = graph::kruskal_msf(n, topo.graph().edges());

    // Strategy A: rebuild from scratch.
    const auto rebuild = eopt::run_eopt(topo);
    rebuild_total += rebuild.run.totals.energy;

    // Strategy B: repair. Carry forward previous-tree edges that are still
    // in the new MST (checked against the reference — a real system would
    // use a local filter; this bounds the best case of repair).
    ghs::FragmentForest seed_forest;
    std::size_t kept = 0;
    {
      std::vector<graph::Edge> survivors;
      for (const graph::Edge& old_edge : previous_tree) {
        const double d = geometry::distance(points[old_edge.u], points[old_edge.v]);
        graph::Edge moved{old_edge.u, old_edge.v, d};
        // Keep iff still an edge of the exact new MST.
        for (const graph::Edge& e : reference) {
          if (e == moved) {
            survivors.push_back(moved);
            break;
          }
        }
      }
      kept = survivors.size();
      graph::UnionFind dsu(n);
      for (const graph::Edge& e : survivors) dsu.unite(e.u, e.v);
      seed_forest.leader.resize(n);
      for (graph::NodeId u = 0; u < n; ++u) seed_forest.leader[u] = dsu.find(u);
      seed_forest.tree = std::move(survivors);
    }
    const auto repair = eopt::run_eopt(topo, {}, {}, &seed_forest);
    repair_total += repair.run.totals.energy;
    const bool exact = graph::same_edge_set(repair.run.tree, reference);
    if (exact) ++repaired_exact;
    carried_edges += kept;
    previous_tree = repair.run.tree;

    std::printf("%-6zu %14.3f %14.3f %12zu %10s\n", epoch,
                rebuild.run.totals.energy, repair.run.totals.energy, kept,
                exact ? "yes" : "NO");
  }

  std::printf("\ncumulative: rebuild %.2f vs repair %.2f (%.1f%% saved); "
              "repair exact in %zu/%zu epochs; %.0f edges carried per epoch "
              "on average\n",
              rebuild_total, repair_total,
              100.0 * (1.0 - repair_total / rebuild_total), repaired_exact,
              epochs, static_cast<double>(carried_edges) /
                          static_cast<double>(epochs));
  std::printf("\nreading guide: the carried-edge count tracks speed, but the "
              "savings stay small — a finding, not a bug: EOPT's bill is "
              "dominated by the per-radius announcement rounds (Θ(log n)), "
              "which no amount of seeding avoids. Under mobility, exact-MST "
              "maintenance with this algorithm family costs ≈ a rebuild per "
              "epoch; contrast with --speed=5, and with failure_recovery, "
              "where the seed eliminates most of Step 1's merging.\n");
  return 0;
}
