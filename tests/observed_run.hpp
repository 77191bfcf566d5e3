// The observable result of one driver run, shared by the suites that pin a
// knob as result-free: the backend (topology_differential_test; classic
// GHS through the facade), the thread count (parallel_determinism_test)
// and the rank count
// (distributed_determinism_test). `observe` copies the run's
// `sim::RunResult` and telemetry stream, so runs can be compared after
// their backing results are gone; `expect_observed_equal` asserts equality
// of every result field, not tolerances, so a single flipped bit anywhere
// fails, and that each side agrees with itself (`sim::consistent`).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "emst/sim/fault.hpp"
#include "emst/sim/oracle.hpp"
#include "emst/sim/run_config.hpp"
#include "emst/sim/telemetry.hpp"

namespace emst {

struct Observed {
  sim::RunResult run;
  std::vector<sim::TelemetryEvent> events;
  std::size_t n = 0;  ///< node count of the run's topology
};

/// Sync GHS and EOPT pass their nested `run`; every other driver its result.
inline Observed observe(const sim::RunResult& run,
                        const sim::MemoryTraceSink& sink, std::size_t n) {
  return {run, sink.events(), n};
}

/// `run` agrees with itself over n nodes (sim::consistent).
inline void expect_consistent(const sim::RunResult& run, std::size_t n) {
  std::string why;
  EXPECT_TRUE(sim::consistent(run, n, &why)) << why;
}

/// Every `sim::RunResult` field, bitwise, after checking that both results
/// over n nodes agree with themselves. The placement witnesses are
/// compared as their sum: parent + rank handler executions of the
/// actor-backed drivers (classic GHS, the Co-NNT actor; 0 for the others).
/// Both placements dispatch the same deliveries, and both classic-GHS retry
/// loops re-park a deferred delivery whose receiver is unchanged without
/// calling the handler, so the sum is placement-free; it differs if one
/// placement skips a delivery or a stale retry that the other runs.
inline void expect_same_run(const sim::RunResult& got,
                            const sim::RunResult& want, std::size_t n) {
  expect_consistent(got, n);
  expect_consistent(want, n);
  ASSERT_EQ(got.tree.size(), want.tree.size());
  for (std::size_t i = 0; i < got.tree.size(); ++i) {
    EXPECT_EQ(got.tree[i].u, want.tree[i].u);
    EXPECT_EQ(got.tree[i].v, want.tree[i].v);
    EXPECT_EQ(got.tree[i].w, want.tree[i].w);  // bitwise
  }
  EXPECT_EQ(got.totals.energy, want.totals.energy);  // bitwise, no NEAR
  EXPECT_EQ(got.totals.unicasts, want.totals.unicasts);
  EXPECT_EQ(got.totals.broadcasts, want.totals.broadcasts);
  EXPECT_EQ(got.totals.deliveries, want.totals.deliveries);
  EXPECT_EQ(got.totals.rounds, want.totals.rounds);
  EXPECT_EQ(got.totals.bits, want.totals.bits);
  EXPECT_EQ(got.phases, want.phases);
  EXPECT_EQ(got.fragments, want.fragments);
  EXPECT_EQ(got.faults.lost, want.faults.lost);
  EXPECT_EQ(got.faults.dropped_crashed, want.faults.dropped_crashed);
  EXPECT_EQ(got.faults.suppressed, want.faults.suppressed);
  EXPECT_EQ(got.arq.data_sent, want.arq.data_sent);
  EXPECT_EQ(got.arq.retransmissions, want.arq.retransmissions);
  EXPECT_EQ(got.arq.acks_sent, want.arq.acks_sent);
  EXPECT_EQ(got.arq.duplicates, want.arq.duplicates);
  EXPECT_EQ(got.arq.delivered, want.arq.delivered);
  EXPECT_EQ(got.arq.give_ups, want.arq.give_ups);
  EXPECT_EQ(got.arq.timeout_rounds, want.arq.timeout_rounds);
  EXPECT_EQ(got.arq.data_bits, want.arq.data_bits);
  EXPECT_EQ(got.arq.ack_bits, want.arq.ack_bits);
  EXPECT_EQ(got.per_node_energy, want.per_node_energy);  // element-wise bitwise
  EXPECT_EQ(got.breakdown_recorded, want.breakdown_recorded);
  EXPECT_EQ(got.breakdown, want.breakdown);
  EXPECT_EQ(got.hit_phase_cap, want.hit_phase_cap);
  EXPECT_EQ(got.epochs, want.epochs);
  ASSERT_EQ(got.injected_crashes.size(), want.injected_crashes.size());
  for (std::size_t i = 0; i < got.injected_crashes.size(); ++i) {
    EXPECT_EQ(got.injected_crashes[i].node, want.injected_crashes[i].node);
    EXPECT_EQ(got.injected_crashes[i].from, want.injected_crashes[i].from);
    EXPECT_EQ(got.injected_crashes[i].until, want.injected_crashes[i].until);
  }
  EXPECT_EQ(got.handler_invocations + got.rank_handler_invocations,
            want.handler_invocations + want.rank_handler_invocations);
}

/// Callers name the run (driver, seed, knob value) with SCOPED_TRACE.
inline void expect_observed_equal(const Observed& got, const Observed& want) {
  ASSERT_EQ(got.n, want.n);
  expect_same_run(got.run, want.run, want.n);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    ASSERT_EQ(got.events[i], want.events[i]) << "event " << i;
  }
}

/// Loss + Gilbert bursts + two crash windows, for the loss-recovering
/// drivers (sync GHS, EOPT) with ARQ on.
inline sim::FaultModel faulty_model() {
  sim::FaultModel faults;
  faults.loss = 0.08;
  faults.use_gilbert = true;
  faults.crashes.push_back({7, 4, 18});
  faults.crashes.push_back({23, 0, 12});
  return faults;
}

}  // namespace emst
