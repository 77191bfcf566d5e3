#include "emst/eopt/eopt.hpp"

#include <algorithm>
#include <unordered_map>

#include "emst/rgg/radii.hpp"
#include "emst/support/assert.hpp"

namespace emst::eopt {

sim::Topology eopt_topology(std::vector<geometry::Point2> points,
                            const EoptOptions& options) {
  const std::size_t n = points.size();
  EMST_ASSERT(n >= 2);
  const double r2 = rgg::connectivity_radius(n, options.step2_factor);
  return sim::Topology(std::move(points), r2);
}

sim::ImplicitTopology eopt_implicit_topology(
    std::vector<geometry::Point2> points, const EoptOptions& options) {
  const std::size_t n = points.size();
  EMST_ASSERT(n >= 2);
  const double r2 = rgg::connectivity_radius(n, options.step2_factor);
  return sim::ImplicitTopology(std::move(points), r2);
}

template <typename Topo>
EoptResult run_eopt(const Topo& topo, const sim::RunConfig& cfg,
                    const EoptOptions& options,
                    const ghs::FragmentForest* seed) {
  const std::size_t n = topo.node_count();
  EMST_ASSERT(n >= 2);
  EoptResult result;
  result.radius1 = rgg::percolation_radius(n, options.step1_factor);
  result.radius2 = topo.max_radius();
  // At tiny n the percolation radius formula exceeds the connectivity
  // radius (√(1/n) shrinks slower than √(ln n/n) only for ln n > (c₁/c₂)²);
  // clamp so Step 1 degenerates gracefully into a single full-radius run.
  result.radius1 = std::min(result.radius1, result.radius2);

  // ONE meter carries the whole run. Stages execute under phase scopes, so
  // the per-phase × per-kind breakdown matrix is the single source of truth
  // for the Thm 5.3 step shares — `phase_total` row sums, not per-stage
  // snapshot subtraction, so the breakdown and the total cannot disagree.
  sim::EnergyMeter total(cfg.pathloss);
  total.enable_breakdown();
  cfg.configure(total, n);

  // One fault session for the whole run: Step 1, the census and Step 2
  // share the loss RNG, burst states and crash clock (docs/ROBUSTNESS.md).
  sim::FaultInjector session(cfg.faults);
  const bool faulty = session.enabled() || cfg.arq.enabled;
  const auto run_step = [&](sim::PhaseTag step, double radius,
                            ghs::SyncGhsOptions opt,
                            const ghs::FragmentForest* from) {
    opt.radius = radius;
    opt.neighbor_cache = options.neighbor_cache;
    opt.announce_min_power = options.announce_min_power;
    const auto scope = total.scoped_phase(step);
    return ghs::run_sync_ghs_stage(topo, cfg, opt, from, total, session);
  };

  // --- Step 1: modified GHS in the percolation regime --------------------
  const ghs::SyncGhsStage stage1 =
      run_step(sim::PhaseTag::kStep1, result.radius1, {}, seed);
  result.step1_fragments = stage1.fragments;
  result.step1_phases = stage1.phases;

  // --- Census: each fragment learns its size -----------------------------
  sim::ArqLink census_link(&session, cfg.arq);
  std::vector<std::size_t> sizes;
  {
    const auto scope = total.scoped_phase(sim::PhaseTag::kCensus);
    sizes = ghs::fragment_census(topo, stage1.final_forest, total,
                                 faulty ? &census_link : nullptr);
  }

  // Fragments above β·ln²n declare themselves giant. Theorem 5.2 says WHP
  // exactly one does; if several exceed the threshold (possible at small n
  // or an aggressive β), only the largest stays passive — two mutually
  // passive fragments would never connect to each other.
  const double threshold = rgg::giant_threshold(n, options.beta);
  std::unordered_map<ghs::NodeId, std::size_t> frag_size;
  for (ghs::NodeId u = 0; u < n; ++u)
    frag_size[stage1.final_forest.leader[u]] = sizes[u];
  ghs::NodeId giant = graph::kNoNode;
  for (const auto& [leader, size] : frag_size) {
    if (static_cast<double>(size) <= threshold) continue;
    if (giant == graph::kNoNode || size > frag_size[giant] ||
        (size == frag_size[giant] && leader < giant)) {
      giant = leader;
    }
  }
  result.giant_found = giant != graph::kNoNode;
  result.giant_size = result.giant_found ? frag_size[giant] : 0;

  // --- Step 2: modified GHS in the connectivity regime -------------------
  ghs::SyncGhsOptions step2;
  if (options.giant_passive && result.giant_found)
    step2.passive_fragments.push_back(giant);
  step2.retain_passive_id = options.giant_keeps_id;
  ghs::SyncGhsStage stage2 = run_step(sim::PhaseTag::kStep2, result.radius2,
                                      step2, &stage1.final_forest);
  result.step2_phases = stage2.phases;

  // Stage shares from the one matrix every charge landed in exactly once.
  const sim::EnergyBreakdown& matrix = total.breakdown();
  result.step1 = matrix.phase_total(sim::PhaseTag::kStep1);
  result.census = matrix.phase_total(sim::PhaseTag::kCensus);
  result.step2 = matrix.phase_total(sim::PhaseTag::kStep2);

  result.run.tree = std::move(stage2.final_forest.tree);
  result.run.fill_from(total);
  result.run.fill_from(session);
  result.run.phases = stage1.phases + stage2.phases;
  result.run.fragments = stage2.fragments;
  result.run.arq = stage1.arq;
  result.run.arq += census_link.stats();
  result.run.arq += stage2.arq;
  result.run.hit_phase_cap = stage1.hit_phase_cap || stage2.hit_phase_cap;
  return result;
}

template EoptResult run_eopt<sim::Topology>(const sim::Topology&,
                                            const sim::RunConfig&,
                                            const EoptOptions&,
                                            const ghs::FragmentForest*);
template EoptResult run_eopt<sim::ImplicitTopology>(
    const sim::ImplicitTopology&, const sim::RunConfig&, const EoptOptions&,
    const ghs::FragmentForest*);

}  // namespace emst::eopt
