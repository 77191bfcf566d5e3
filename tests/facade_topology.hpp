// The CSR that `emst::run(const Instance&, cfg)` pairs with: the same points
// and the radius the facade derives before it builds its implicit grid. The
// suites that compare the facade's Instance path with a run on the caller's
// CSR (run_facade_test, pinned_outputs_test) share this one copy of the
// facade's radius rule.
#pragma once

#include "emst/rgg/radii.hpp"
#include "emst/run.hpp"
#include "emst/sim/topology.hpp"

namespace emst {

inline sim::Topology facade_topology(const Instance& inst,
                                     const RunConfig& cfg) {
  double radius = inst.radius;
  if (radius <= 0.0) {
    const double factor = cfg.driver == Driver::kEopt ? cfg.eopt.step2_factor
                                                      : inst.radius_factor;
    radius = rgg::connectivity_radius(inst.points.size(), factor);
  }
  return sim::Topology(inst.points, radius);
}

}  // namespace emst
