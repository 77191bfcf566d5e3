// Trace replay and the trace checker (docs/TELEMETRY.md).
//
// A telemetry stream is only trustworthy if it is *complete*: every joule,
// message, drop and retransmission the live counters saw must be derivable
// from the events alone. `ReplayTotals::add` is that derivation, one event
// at a time — it folds a stream back into `Accounting`, `FaultStats`,
// `ArqStats` and the per-phase × per-kind `EnergyBreakdown`, accumulating in
// event order so the floating-point results are bitwise identical to the
// live meter's (tests/telemetry_test.cpp pins this across engines, faults
// and ARQ). `replay_events` runs it over an in-memory stream; `check_trace`
// runs it over a JSONL file one line at a time (examples/emst_trace.cpp).
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
//
// Event rules (`check_event`), which every stream keeps:
//  - round events carry no wire bits;
//  - meta events — a crash injection, an oracle violation and the four ARQ
//    session events — carry no wire bits or energy;
//  - ARQ session events carry no frame flags;
//  - an ARQ-flagged unicast whose size was measured is at least the
//    kArqHeaderBits-bit ARQ header (sim/wire.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "emst/sim/fault.hpp"
#include "emst/sim/meter.hpp"
#include "emst/sim/reliable.hpp"
#include "emst/sim/telemetry.hpp"

namespace emst::sim {

/// Whether `event` keeps the event rules above. On a violation, returns
/// false and, if `why` is non-null, stores the rule it breaks there.
[[nodiscard]] bool check_event(const TelemetryEvent& event, std::string* why);

/// Everything a run's counters say, recomputed from events alone.
struct ReplayTotals {
  Accounting totals;
  FaultStats faults;
  ArqStats arq;
  EnergyBreakdown breakdown;
  std::size_t events = 0;  ///< events folded in
  /// The first event that broke a `check_event` rule: its index in the
  /// stream and the rule. `violation` is empty while every event keeps them.
  std::size_t violation_index = 0;
  std::string violation;

  /// Check one event against the rules, then fold it in.
  void add(const TelemetryEvent& event);
};

[[nodiscard]] ReplayTotals replay_events(
    std::span<const TelemetryEvent> events);

/// Parse one event line of a JSONL trace (no trailing newline): the exact
/// inverse of `JsonlTraceSink::on_event`. Keys must come in the writer's
/// order, each optional key at most once, with nothing else on the line.
/// Integers must fit their field's type and doubles must be finite; names
/// are the spellings of `event_type_name`, `msg_kind_name` and
/// `phase_tag_name`. On failure, returns false and, if `why` is non-null,
/// says why there.
[[nodiscard]] bool parse_event_line(std::string_view line,
                                    TelemetryEvent& event, std::string* why);

/// A JSONL trace's first line: what produced the events. `threads` and
/// `ranks` record how the trace was produced; neither affects replay —
/// thread and rank counts are observationally equivalent (docs/PERF.md,
/// docs/DISTRIBUTED.md). The line carries "threads" only when > 1 and
/// "ranks" only when > 0, so default serial traces are byte-stable.
/// `driver` records the driver variant that actually executed
/// (emst::resolved_driver_name) — the Co-NNT drivers silently dispatch to
/// their node-actor implementation under faults or ranks, and the header is
/// where that dispatch becomes visible to offline tooling; it only appears
/// when non-empty, and `check_trace` validates it.
struct TraceHeader {
  std::string algo{};
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
  std::uint64_t threads = 1;
  std::uint64_t ranks = 0;
  std::string driver{};
};

/// JSONL framing for CLI trace files: one `{"trace":...}` header line before
/// the event stream and one `{"summary":...}` line after it, carrying the
/// live counters the replay must reproduce.
void write_trace_header(std::ostream& out, const TraceHeader& header);
void write_trace_summary(std::ostream& out, const Accounting& totals,
                         const FaultStats& faults, const ArqStats& arq);

/// The verdict on one JSONL trace.
struct TraceCheck {
  std::size_t line = 0;  ///< first failing line, 1-based; 0 when ok
  std::string error;     ///< why that line fails
  TraceHeader header;
  ReplayTotals replay;  ///< `replay.events` counts the event lines

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Check a JSONL trace, holding one line at a time: the header on the first
/// line (tag, version 1, threads ≥ 1, a driver that is `algo` or its actor,
/// and the actor whenever ranks > 0 run Co-NNT), one event per line after
/// it, each parsed by `parse_event_line` and kept to the event rules, and
/// the summary on the last line, whose energy and counters the replay must
/// reproduce exactly — energy bit for bit. Blank lines are skipped.
[[nodiscard]] TraceCheck check_trace(std::istream& in);

}  // namespace emst::sim
