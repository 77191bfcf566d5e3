// Structured run telemetry (docs/TELEMETRY.md).
//
// The paper's headline claims are *breakdowns* — Thm 5.3 splits EOPT's
// energy across Step 1 / census / Step 2, and §V-A attributes the win to
// specific message classes — so coarse `Accounting` totals are not enough
// to verify them. This module is the opt-in event layer underneath every
// figure: each physical transmission, channel drop, ARQ bookkeeping action
// and round tick becomes one `TelemetryEvent` carrying sender, receiver,
// round, distance, energy, message kind, fragment id and algorithm phase.
//
// Layering (no cycles): telemetry.hpp knows nothing about the meter or the
// engines. `EnergyMeter` (meter.hpp) is the single emission chokepoint — it
// holds the phase/kind/fragment context and stamps every charge into the
// attached `Telemetry`; engines and drivers only set context and, for
// non-charge events (drops, ARQ meta), call `EnergyMeter::note_event`.
//
// Cost model: fully opt-in. With no `Telemetry` attached, the meter's hot
// paths pay one predictable null check per charge — measured as noise in
// bench/telemetry_overhead (tracked in BENCH_telemetry.json).
//
// The replay invariant (tests/telemetry_test.cpp, sim::check_trace):
// `replay_events()` (trace_replay.hpp) recomputes `Accounting`,
// `FaultStats`, `ArqStats` and the per-phase × per-kind energy matrix from
// the event stream alone, and must match the live counters bit-for-bit —
// the event stream accumulates in exactly the charge order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace emst::sim {

/// Algorithm phase an event belongs to. `kRun` is the single-phase default;
/// EOPT scopes its three stages (`EnergyMeter::scoped_phase`).
enum class PhaseTag : std::uint8_t { kRun, kStep1, kCensus, kStep2, kCount };

/// Message class of a charge event. Covers classic/sync GHS (CONNECT …
/// ANNOUNCE), the census collective, Co-NNT (REQUEST/REPLY/CONNECTION) and
/// ARQ acknowledgement frames; `kData` is the anonymous default (raw engine
/// traffic).
enum class MsgKind : std::uint8_t {
  kData,
  kConnect,
  kInitiate,
  kTest,
  kAccept,
  kReject,
  kReport,
  kChangeRoot,
  kAnnounce,
  kCensus,
  kRequest,
  kReply,
  kConnection,
  kArqAck,
  kCount,
};

/// What happened. Charge events (kUnicast/kBroadcast) carry energy; fault
/// events mirror the FaultStats counters one-for-one; ARQ meta events mirror
/// the ArqStats counters that are not derivable from flagged charges.
enum class EventType : std::uint8_t {
  kUnicast,       ///< one charged point-to-point transmission
  kBroadcast,     ///< one charged local broadcast (receivers = fan-out)
  kLoss,          ///< channel ate a transmission (sender was charged)
  kCrashDrop,     ///< receiver down at delivery (sender was charged)
  kSuppress,      ///< sender down: transmission suppressed, free
  kArqDeliver,    ///< ARQ session: payload reached the receiver
  kArqDuplicate,  ///< ARQ session: receiver suppressed a re-delivery
  kArqGiveUp,     ///< ARQ session exhausted its retry budget
  kArqTimeout,    ///< `value` timeout rounds spent waiting on lost frames
  kRound,         ///< simulated clock advanced by `value` rounds
  kCrashInject,   ///< chaos controller injected a crash window for `from`
  kOracleViolation,  ///< invariant oracle recorded violation #`value`
  kCount,
};

[[nodiscard]] std::string_view phase_tag_name(PhaseTag phase);
[[nodiscard]] std::string_view msg_kind_name(MsgKind kind);
[[nodiscard]] std::string_view event_type_name(EventType type);

/// TelemetryEvent::from/to/fragment when unknown / not applicable.
inline constexpr std::uint32_t kNoEventNode = static_cast<std::uint32_t>(-1);

/// TelemetryEvent::flags bits.
inline constexpr std::uint8_t kEventFlagArq = 1;         ///< ARQ-managed frame
inline constexpr std::uint8_t kEventFlagRetransmit = 2;  ///< timeout re-send

struct TelemetryEvent {
  EventType type = EventType::kUnicast;
  MsgKind kind = MsgKind::kData;
  PhaseTag phase = PhaseTag::kRun;
  std::uint8_t flags = 0;
  std::uint32_t from = kNoEventNode;
  std::uint32_t to = kNoEventNode;  ///< receiver (unicast) or kNoEventNode
  std::uint32_t receivers = 0;      ///< broadcast fan-out
  std::uint32_t fragment = kNoEventNode;  ///< sender's fragment id, if known
  std::uint32_t bits = 0;   ///< wire size of the frame; 0 = unmeasured
  std::uint64_t round = 0;  ///< meter clock when the event was recorded
  std::uint64_t value = 0;  ///< rounds (kRound, kArqTimeout)
  double reach = 0.0;       ///< distance (unicast) or power radius (broadcast)
  double energy = 0.0;      ///< reach^α for charge events, 0 otherwise

  [[nodiscard]] bool operator==(const TelemetryEvent&) const = default;
};

/// Event consumer. Implementations must not throw out of `on_event` (the
/// meter's charge paths call it).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TelemetryEvent& event) = 0;
};

/// Buffers every event in memory — the replay validator's input.
class MemoryTraceSink final : public TraceSink {
 public:
  void on_event(const TelemetryEvent& event) override {
    events_.push_back(event);
  }
  [[nodiscard]] const std::vector<TelemetryEvent>& events() const noexcept {
    return events_;
  }
  void clear() noexcept { events_.clear(); }

 private:
  std::vector<TelemetryEvent> events_;
};

/// Streams one compact JSON object per event (the JSONL trace format of
/// docs/TELEMETRY.md; doubles print with %.17g so replay round-trips
/// exactly). Header/summary framing lines are written by the caller —
/// see write_trace_header / write_trace_summary in trace_replay.hpp, whose
/// parse_event_line reads each event line back.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(out) {}
  void on_event(const TelemetryEvent& event) override;

 private:
  std::ostream& out_;
};

/// Streaming aggregates (no event buffering): per-node transmit-energy
/// ledger, awake-round counts and the total simulated round count. A node
/// is "awake" in a round when it transmits or is the addressed receiver of
/// a unicast; broadcast listeners stay idle (receiving is free in the
/// paper's model, §II).
struct TelemetryAggregate {
  std::vector<double> node_energy;          ///< per sender, Σ reach^α
  std::vector<std::uint64_t> awake_rounds;  ///< distinct active rounds
  std::uint64_t rounds = 0;                 ///< total simulated rounds seen

  void apply(const TelemetryEvent& event);
  [[nodiscard]] std::uint64_t idle_rounds(std::uint32_t node) const noexcept {
    const std::uint64_t awake =
        node < awake_rounds.size() ? awake_rounds[node] : 0;
    return rounds > awake ? rounds - awake : 0;
  }

 private:
  friend class Telemetry;
  /// Last round (plus one; 0 = never) each node was seen active — the
  /// dedup that turns per-event touches into distinct-round counts.
  std::vector<std::uint64_t> last_active_;
  void touch(std::uint32_t node, std::uint64_t round);
};

/// The opt-in event hub a run attaches to (`sim::RunConfig::telemetry`).
/// Configure it — sink, aggregation — BEFORE the run starts: the meter
/// snapshots activity at attach time and skips inert telemetry entirely.
/// Use one Telemetry per run; aggregates and round stamps assume a single
/// monotone meter clock.
class Telemetry {
 public:
  Telemetry() = default;
  explicit Telemetry(TraceSink* sink) : sink_(sink) {}

  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }
  /// Size the per-node aggregate arrays and start aggregating.
  void enable_aggregation(std::size_t node_count) {
    aggregating_ = true;
    aggregate_.node_energy.assign(node_count, 0.0);
    aggregate_.awake_rounds.assign(node_count, 0);
    aggregate_.last_active_.assign(node_count, 0);
    aggregate_.rounds = 0;
  }

  [[nodiscard]] bool aggregating() const noexcept { return aggregating_; }
  [[nodiscard]] const TelemetryAggregate& aggregate() const noexcept {
    return aggregate_;
  }
  /// Anything to do? Inert telemetry is dropped at attach time.
  [[nodiscard]] bool active() const noexcept {
    return sink_ != nullptr || aggregating_;
  }

  void record(const TelemetryEvent& event) {
    if (sink_ != nullptr) sink_->on_event(event);
    if (aggregating_) aggregate_.apply(event);
  }

 private:
  TraceSink* sink_ = nullptr;
  bool aggregating_ = false;
  TelemetryAggregate aggregate_;
};

}  // namespace emst::sim
