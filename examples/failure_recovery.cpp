// Node failures and MST repair — the §I dynamism motivation ("the topology
// of these networks can change frequently due to mobility or node failures.
// Communication cost and running time are even more crucial in such a
// dynamic setting").
//
//   ./failure_recovery [--n=2000] [--kill=10] [--seed=23]
//
// Scenario: build the MST with EOPT; a fraction of nodes dies; the MST
// fragments into pieces. Recover two ways and compare the energy bills:
//   - full rebuild: run EOPT from scratch on the survivors;
//   - incremental repair: keep the surviving fragments as the seed forest
//     and run ONE modified-GHS pass at the connectivity radius — exactly
//     EOPT's Step-2 machinery reused as a repair procedure.
// Both must produce the exact MST of the survivor set.
#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/graph/union_find.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/rng.hpp"

int main(int argc, char** argv) {
  using namespace emst;
  const support::Cli cli(argc, argv,
                         {{"n", "number of nodes (default 2000)"},
                          {"kill", "percent of nodes to fail (default 10)"},
                          {"seed", "deployment seed (default 23)"}});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 2000));
  const double kill_frac =
      static_cast<double>(cli.get_int("kill", 10)) / 100.0;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 23));

  support::Rng rng(seed);
  const auto points = geometry::uniform_points(n, rng);
  const sim::Topology topo(points, rgg::connectivity_radius(n));
  const auto original = eopt::run_eopt(topo);
  std::printf("built initial MST over %zu nodes: energy %.3f\n", n,
              original.run.totals.energy);

  // Kill nodes; survivors keep their positions (re-indexed densely).
  std::vector<bool> dead(n, false);
  const auto kill_count = static_cast<std::size_t>(kill_frac * n);
  for (std::size_t k = 0; k < kill_count;) {
    const auto victim = static_cast<std::size_t>(rng.uniform_int(n));
    if (!dead[victim]) {
      dead[victim] = true;
      ++k;
    }
  }
  std::vector<geometry::Point2> survivors;
  std::vector<graph::NodeId> new_id(n, graph::kNoNode);
  for (graph::NodeId u = 0; u < n; ++u) {
    if (!dead[u]) {
      new_id[u] = static_cast<graph::NodeId>(survivors.size());
      survivors.push_back(points[u]);
    }
  }
  const std::size_t m = survivors.size();
  std::printf("killed %zu nodes (%.0f%%), %zu survive\n", kill_count,
              100.0 * kill_frac, m);

  // Surviving tree edges form the seed forest.
  std::vector<graph::Edge> seed_edges;
  for (const graph::Edge& e : original.run.tree) {
    if (!dead[e.u] && !dead[e.v])
      seed_edges.push_back({new_id[e.u], new_id[e.v], e.w});
  }
  // Radio range must cover the thinner survivor density.
  const sim::Topology survivor_topo(survivors, rgg::connectivity_radius(m));
  // Seed edges longer than nothing to worry about: tree edges are short.
  graph::UnionFind dsu(m);
  for (const graph::Edge& e : seed_edges) dsu.unite(e.u, e.v);
  std::printf("surviving MST pieces: %zu fragments\n", dsu.components());

  // --- Option A: full rebuild.
  const auto rebuild = eopt::run_eopt(survivor_topo);

  // --- Option B: incremental repair from the seed forest.
  ghs::FragmentForest forest;
  forest.leader.resize(m);
  for (graph::NodeId u = 0; u < m; ++u) forest.leader[u] = dsu.find(u);
  forest.tree = seed_edges;
  ghs::SyncGhsOptions repair_opts;
  repair_opts.radius = survivor_topo.max_radius();
  // Reuse EOPT's giant-passivity trick: the largest surviving fragment only
  // accepts connections, so its Θ(m) members never flood or re-announce.
  {
    std::unordered_map<graph::NodeId, std::size_t> sizes;
    for (graph::NodeId u = 0; u < m; ++u) ++sizes[forest.leader[u]];
    graph::NodeId biggest = forest.leader[0];
    for (const auto& [leader, size] : sizes) {
      if (size > sizes[biggest]) biggest = leader;
    }
    repair_opts.passive_fragments = {biggest};
  }
  const auto repair =
      ghs::run_sync_ghs(survivor_topo, {}, repair_opts, forest);

  // --- Option C: seeded EOPT — the two-radius repair. Step 1 merges the
  // pieces at the cheap percolation radius, Step 2 finishes with a passive
  // giant. This is EOPT reused as a repair primitive.
  const auto seeded = eopt::run_eopt(survivor_topo, {}, {}, &forest);

  // All must equal Kruskal on the survivor graph. NOTE: the seed forest is
  // a subset of the survivor MST by the cycle property (it was part of the
  // original MST, and deleting nodes only removes cycles).
  const auto reference =
      graph::kruskal_msf(m, survivor_topo.graph().edges());
  auto report = [&](const char* name, const sim::RunResult& run) {
    std::printf("%-22s: energy %8.3f, messages %7llu, exact=%s\n", name,
                run.totals.energy,
                static_cast<unsigned long long>(run.totals.messages()),
                graph::same_edge_set(run.tree, reference) ? "yes" : "NO");
  };
  std::printf("\n");
  report("full rebuild (EOPT)", rebuild.run);
  report("1-radius repair", repair.run);
  report("seeded EOPT repair", seeded.run);
  std::printf("\nreading guide: the one-radius repair saves messages but pays "
              "r2^2 per message from the start; seeded EOPT keeps the seed "
              "AND the cheap percolation-radius regime — the best of both. "
              "The dynamism story of SI, built from the paper's own pieces.\n");
  return 0;
}
