// Engine-generic construction for the engine-templated drivers.
//
// The drivers (classic GHS, the Co-NNT actor) are templated on the network
// engine so the calendar-queue `Network`, the `ReferenceNetwork` oracle, the
// sharded parallel engine and the process-level distributed engine all
// execute the exact same node-actor code: the in-process engines dispatch it
// from the driver after each `collect_round`, the distributed engine runs it
// inside its rank processes after `install_actor` (the drivers branch on
// `DistributedEngine`, below). The engines differ in one trailing
// constructor parameter — `ShardedNetwork` takes a thread count,
// `DistributedNetwork` a rank count — and `make_engine` papers over that:
// the size argument is forwarded only to engines whose constructor accepts
// it, and distributed engines (marked by `kDistributedEngine`) receive
// `ranks` where sharded ones receive `threads`. Guaranteed copy elision
// makes this work even for non-movable engines (`ShardedNetwork` owns a
// worker pool, `DistributedNetwork` a process group): the returned prvalue
// materializes directly into the driver's member.
#pragma once

#include <cstddef>
#include <type_traits>

#include "emst/sim/fault.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/sim/topology.hpp"

namespace emst::sim {

/// True for engines whose trailing constructor size means forked rank
/// processes rather than shard threads (distributed_network.hpp).
template <typename Engine>
concept DistributedEngine = requires { Engine::kDistributedEngine; };

template <typename Engine, typename Topo = Topology>
[[nodiscard]] Engine make_engine(const Topo& topo,
                                 geometry::PathLoss pathloss,
                                 bool unbounded_broadcast, DelayModel delays,
                                 FaultModel faults, Telemetry* telemetry,
                                 std::size_t threads, std::size_t ranks = 0) {
  if constexpr (DistributedEngine<Engine>) {
    return Engine(topo, pathloss, unbounded_broadcast, delays, faults,
                  telemetry, ranks);
  } else if constexpr (std::is_constructible_v<
                           Engine, const Topo&, geometry::PathLoss, bool,
                           DelayModel, FaultModel, Telemetry*, std::size_t>) {
    return Engine(topo, pathloss, unbounded_broadcast, delays, faults,
                  telemetry, threads);
  } else {
    return Engine(topo, pathloss, unbounded_broadcast, delays, faults,
                  telemetry);
  }
}

}  // namespace emst::sim
