// The facade dispatches straight to the per-driver entry points and returns
// the `sim::RunResult` each driver fills (moved out of the nesting or
// derived result), so its results are the direct calls' own
// (tests/run_facade_test.cpp pins this field for field).
#include "emst/run.hpp"

#include <string>
#include <type_traits>
#include <utility>

#include "emst/geometry/sampling.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/oracle.hpp"
#include "emst/support/assert.hpp"
#include "emst/support/rng.hpp"

namespace emst {

const char* driver_name(Driver driver) noexcept {
  switch (driver) {
    case Driver::kClassicGhs: return "ghs";
    case Driver::kClassicGhsCached: return "ghs-cached";
    case Driver::kSyncGhs: return "sync";
    case Driver::kSyncGhsProbe: return "sync-probe";
    case Driver::kEopt: return "eopt";
    case Driver::kCoNnt: return "connt";
    case Driver::kCoNntAxis: return "connt-axis";
  }
  return "?";
}

bool parse_driver(const std::string& name, Driver& out) noexcept {
  for (const Driver d :
       {Driver::kClassicGhs, Driver::kClassicGhsCached, Driver::kSyncGhs,
        Driver::kSyncGhsProbe, Driver::kEopt, Driver::kCoNnt,
        Driver::kCoNntAxis}) {
    if (name == driver_name(d)) {
      out = d;
      return true;
    }
  }
  return false;
}

const char* resolved_driver_name(Driver driver,
                                 const sim::RunConfig& cfg) noexcept {
  const bool connt_actor = nnt::runs_actor(cfg);
  switch (driver) {
    case Driver::kCoNnt: return connt_actor ? "connt-actor" : "connt";
    case Driver::kCoNntAxis:
      return connt_actor ? "connt-axis-actor" : "connt-axis";
    default: return driver_name(driver);
  }
}

bool driver_supports_loss(Driver driver) noexcept {
  switch (driver) {
    case Driver::kSyncGhs:
    case Driver::kSyncGhsProbe:
    case Driver::kEopt:
      return true;
    case Driver::kClassicGhs:
    case Driver::kClassicGhsCached:
    case Driver::kCoNnt:
    case Driver::kCoNntAxis:
      return false;
  }
  return false;
}

Instance sample_instance(std::size_t n, std::uint64_t seed,
                         double radius_factor) {
  support::Rng rng(seed);
  Instance inst;
  inst.points = geometry::uniform_points(n, rng);
  inst.radius_factor = radius_factor;
  return inst;
}

namespace {

template <typename Topo>
RunResult dispatch(const Topo& topo, const RunConfig& cfg) {
  switch (cfg.driver) {
    case Driver::kClassicGhs:
    case Driver::kClassicGhsCached: {
      ghs::ClassicGhsOptions opt = cfg.classic;
      opt.moe = cfg.driver == Driver::kClassicGhsCached
                    ? ghs::MoeStrategy::kCachedConfirm
                    : ghs::MoeStrategy::kTestAll;
      if constexpr (std::is_same_v<Topo, sim::ImplicitTopology>) {
        // Classic GHS names fragments by CSR edge index and keeps a state
        // per incident edge on any backend: run it on the CSR of the same
        // points and radius, which enumerates the same neighbourhoods.
        const sim::Topology csr(topo.points(), topo.max_radius());
        return ghs::run_classic_ghs(csr, cfg, opt);
      } else {
        return ghs::run_classic_ghs(topo, cfg, opt);
      }
    }
    case Driver::kSyncGhs:
    case Driver::kSyncGhsProbe: {
      ghs::SyncGhsOptions opt = cfg.sync;
      opt.neighbor_cache = cfg.driver == Driver::kSyncGhs;
      return ghs::run_sync_ghs(topo, cfg, opt).run;
    }
    case Driver::kEopt:
      return eopt::run_eopt(topo, cfg, cfg.eopt).run;
    case Driver::kCoNnt:
    case Driver::kCoNntAxis: {
      nnt::CoNntOptions opt = cfg.connt;
      opt.scheme = cfg.driver == Driver::kCoNntAxis ? nnt::RankScheme::kAxis
                                                    : nnt::RankScheme::kDiagonal;
      return nnt::run_connt(topo, cfg, opt);
    }
  }
  return {};  // unreachable: every Driver returns above
}

}  // namespace

template <typename Topo>
RunResult run(const Topo& topo, const RunConfig& cfg) {
  RunResult result = dispatch(topo, cfg);
  if (cfg.oracle != nullptr) {
    std::string why;
    if (!sim::consistent(result, topo.node_count(), &why))
      cfg.oracle->note("result", result.totals.rounds, std::move(why));
  }
  return result;
}

template RunResult run<sim::Topology>(const sim::Topology&, const RunConfig&);
template RunResult run<sim::ImplicitTopology>(const sim::ImplicitTopology&,
                                              const RunConfig&);

RunResult run(const Instance& inst, const RunConfig& cfg) {
  const std::size_t n = inst.points.size();
  EMST_ASSERT_MSG(n >= 2, "emst::run: an instance needs at least two nodes");
  double radius = inst.radius;
  if (radius <= 0.0) {
    // EOPT's topology is built at its own Step-2 radius (exactly what
    // eopt::eopt_topology does); everything else gets the connectivity
    // radius for the instance's factor.
    const double factor = cfg.driver == Driver::kEopt ? cfg.eopt.step2_factor
                                                      : inst.radius_factor;
    radius = rgg::connectivity_radius(n, factor);
  }
  const sim::ImplicitTopology topo(inst.points, radius);
  return run(topo, cfg);
}

}  // namespace emst
