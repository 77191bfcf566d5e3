#include "emst/harness/experiment.hpp"

#include "emst/geometry/sampling.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/support/parallel.hpp"

namespace emst::harness {
namespace {

AlgoOutcome make_outcome(const std::vector<geometry::Point2>& points,
                         const sim::RunResult& run,
                         const std::vector<graph::Edge>& reference) {
  AlgoOutcome outcome;
  outcome.energy = run.totals.energy;
  outcome.messages = run.totals.messages();
  outcome.rounds = run.totals.rounds;
  outcome.phases = run.phases;
  outcome.tree_edges = run.tree.size();
  outcome.tree_len = graph::tree_cost(points, run.tree, 1.0);
  outcome.tree_sq = graph::tree_cost(points, run.tree, 2.0);
  outcome.spanning = graph::is_spanning_tree(points.size(), run.tree);
  outcome.exact_mst = graph::same_edge_set(run.tree, reference);
  return outcome;
}

}  // namespace

InstanceResults run_instance(const InstanceConfig& config) {
  InstanceResults results;
  support::Rng rng(config.seed);
  const auto points =
      geometry::sample_deployment(config.deployment, config.n, rng);
  // One shared configuration: the path loss applies to every algorithm.
  sim::RunConfig cfg;
  cfg.pathloss = {1.0, config.alpha};

  // Shared topology at the connectivity radius r₂ (GHS baseline and EOPT
  // Step 2 both operate at this radius, per §VII).
  const double r2 = rgg::connectivity_radius(config.n, config.connectivity_factor);
  const sim::Topology topo(points, r2);

  // Reference: the unique MSF of the r₂-visibility graph (equals the
  // Euclidean MST whenever the graph is connected).
  const auto reference =
      graph::kruskal_msf(config.n, topo.graph().edges());
  results.graph_connected = reference.size() == config.n - 1;
  {
    const auto true_mst = rgg::euclidean_mst(points);
    results.mst_len = graph::tree_cost(points, true_mst, 1.0);
    results.mst_sq = graph::tree_cost(points, true_mst, 2.0);
  }

  if (config.run_ghs) {
    results.ghs =
        make_outcome(points, ghs::run_classic_ghs(topo, cfg), reference);
  }
  if (config.run_eopt) {
    eopt::EoptOptions options;
    options.step2_factor = config.connectivity_factor;
    const auto run = eopt::run_eopt(topo, cfg, options);
    results.eopt = make_outcome(points, run.run, reference);
    results.eopt_detail = run;
  }
  if (config.run_connt) {
    results.connt = make_outcome(points, nnt::run_connt(topo, cfg), reference);
  }
  return results;
}

void Aggregate::add(const AlgoOutcome& outcome) {
  energy.add(outcome.energy);
  messages.add(static_cast<double>(outcome.messages));
  rounds.add(static_cast<double>(outcome.rounds));
  tree_len.add(outcome.tree_len);
  tree_sq.add(outcome.tree_sq);
  if (outcome.exact_mst) ++exact_count;
  if (outcome.spanning) ++spanning_count;
  ++trials;
}

void Aggregate::merge(const Aggregate& other) {
  energy.merge(other.energy);
  messages.merge(other.messages);
  rounds.merge(other.rounds);
  tree_len.merge(other.tree_len);
  tree_sq.merge(other.tree_sq);
  exact_count += other.exact_count;
  spanning_count += other.spanning_count;
  trials += other.trials;
}

SweepPoint run_sweep_point(const InstanceConfig& base, std::size_t trials,
                           std::uint64_t master_seed) {
  SweepPoint point;
  point.n = base.n;
  point.trials = trials;
  // Each trial writes only its own slot; aggregation is serial afterwards,
  // so the sweep result is bit-identical for any thread count.
  std::vector<InstanceResults> per_trial(trials);
  support::parallel_for(trials, [&](std::size_t trial) {
    InstanceConfig config = base;
    config.seed = support::Rng::stream_seed(master_seed, trial);
    per_trial[trial] = run_instance(config);
  });
  for (const InstanceResults& r : per_trial) {
    if (r.ghs) point.ghs.add(*r.ghs);
    if (r.eopt) point.eopt.add(*r.eopt);
    if (r.connt) point.connt.add(*r.connt);
    point.mst_len.add(r.mst_len);
    point.mst_sq.add(r.mst_sq);
    if (r.graph_connected) ++point.connected_count;
  }
  return point;
}

}  // namespace emst::harness
