// Trace-replay validation (docs/TELEMETRY.md).
//
// A telemetry stream is only trustworthy if it is *complete*: every joule,
// message, drop and retransmission the live counters saw must be derivable
// from the events alone. `replay_events` is that derivation — it folds a
// stream back into `Accounting`, `FaultStats`, `ArqStats` and the
// per-phase × per-kind `EnergyBreakdown`, accumulating in event order so
// the floating-point results are bitwise identical to the live meter's
// (tests/telemetry_test.cpp pins this across engines, faults and ARQ; the
// same derivation is re-implemented in scripts/check_trace.py for JSONL
// files).
//
// Reconstruction rules:
//  - kUnicast/kBroadcast: sum `energy`, count messages/deliveries, fold the
//    (phase, kind) cell. ARQ-flagged unicasts additionally rebuild the
//    frame counters: retransmit flag → retransmissions, kind arq_ack →
//    acks_sent, otherwise → data_sent.
//  - kLoss / kCrashDrop / kSuppress: the three FaultStats counters, 1:1.
//  - kArqDeliver / kArqDuplicate / kArqGiveUp: ArqStats meta counters, 1:1;
//    kArqTimeout adds `value` timeout rounds.
//  - kRound: adds `value` to rounds (total and per-phase).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>

#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/reliable.hpp"
#include "emst/sim/telemetry.hpp"

namespace emst::sim {

/// Everything a run's counters say, recomputed from events alone.
struct ReplayTotals {
  Accounting totals;
  FaultStats faults;
  ArqStats arq;
  EnergyBreakdown breakdown;
};

[[nodiscard]] ReplayTotals replay_events(
    std::span<const TelemetryEvent> events);

/// JSONL framing for CLI trace files: one `{"trace":...}` header line before
/// the event stream and one `{"summary":...}` line after it, carrying the
/// live counters the replayer must reproduce (scripts/check_trace.py).
/// `threads` and `ranks` record how the trace was produced; neither affects
/// replay — thread and rank counts are observationally equivalent
/// (docs/PERF.md, docs/DISTRIBUTED.md). "threads" only appears when
/// > 1 and "ranks" when > 0, so default serial traces are byte-stable.
/// `driver` records the driver variant that actually executed
/// (emst::resolved_driver_name) — the Co-NNT drivers silently dispatch to
/// their node-actor implementation under faults or ranks, and the header is
/// where that dispatch becomes visible to offline tooling; it only appears
/// when non-empty and is validated by scripts/check_trace.py.
void write_trace_header(std::ostream& out, std::string_view algo,
                        std::size_t n, std::uint64_t seed,
                        std::size_t threads = 0, std::size_t ranks = 0,
                        std::string_view driver = {});
void write_trace_summary(std::ostream& out, const Accounting& totals,
                         const FaultStats& faults, const ArqStats& arq);

}  // namespace emst::sim
