// Engine-generic construction for the engine-templated drivers.
//
// The drivers (classic GHS, the Co-NNT actor) are templated on the network
// engine so the calendar-queue `Network` and the process-level distributed
// engine execute the exact same node-actor code: the in-process engine
// dispatches it from the driver after each `collect_round`, the distributed
// engine runs it inside its rank processes after `install_actor` (the
// drivers branch on `DistributedEngine`, below).
// Only the distributed engine takes a trailing constructor parameter, its
// rank count, and `make_engine` papers over that. Guaranteed copy elision
// makes this work even though `DistributedNetwork` is non-movable (it owns a
// process group): the returned prvalue materializes directly into the
// driver's member.
#pragma once

#include <cstddef>

#include "emst/sim/fault.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/sim/topology.hpp"

namespace emst::sim {

/// True for engines that run the node actor in forked rank processes
/// (distributed_network.hpp).
template <typename Engine>
concept DistributedEngine = requires { Engine::kDistributedEngine; };

template <typename Engine>
[[nodiscard]] Engine make_engine(const Topology& topo,
                                 geometry::PathLoss pathloss,
                                 bool unbounded_broadcast, DelayModel delays,
                                 FaultModel faults, Telemetry* telemetry,
                                 std::size_t ranks) {
  if constexpr (DistributedEngine<Engine>) {
    return Engine(topo, pathloss, unbounded_broadcast, delays, faults,
                  telemetry, ranks);
  } else {
    return Engine(topo, pathloss, unbounded_broadcast, delays, faults,
                  telemetry);
  }
}

}  // namespace emst::sim
