// Energy / message / time accounting (paper §II).
//
// Energy complexity is Σᵢ wᵢ where wᵢ = d^α is the cost of the i-th message:
//  - a unicast from u to v costs d(u,v)^α (bidirectional exchange costs both
//    directions, i.e. 2·w(u,v)),
//  - a *local broadcast* at power radius ρ costs ρ^α once, regardless of the
//    number of receivers (the radio/wireless feature the paper highlights).
// The meter also counts messages (message complexity) and synchronous rounds
// (time complexity) so benches can report all three classical measures.
//
// The meter is additionally the single chokepoint for structured telemetry
// (telemetry.hpp): it carries the current phase/kind/fragment context, folds
// every charge into the per-phase × per-kind `EnergyBreakdown` matrix when
// enabled, and stamps `TelemetryEvent`s into an attached `Telemetry`. All of
// it is opt-in; disabled meters behave exactly like the seed meter.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "emst/geometry/pathloss.hpp"
#include "emst/sim/telemetry.hpp"

namespace emst::sim {

struct Accounting {
  double energy = 0.0;
  std::uint64_t unicasts = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t deliveries = 0;  ///< receiver-side count (broadcast fan-out)
  std::uint64_t rounds = 0;
  /// Bits-on-air across all charged transmissions. Populated only when the
  /// sending engine has a `WireFormat` for the message type (wire.hpp);
  /// 0 means "unmeasured", not "empty messages". Bits never influence the
  /// energy figure — the paper charges d^α per message regardless of size.
  std::uint64_t bits = 0;

  [[nodiscard]] std::uint64_t messages() const noexcept {
    return unicasts + broadcasts;
  }

  Accounting& operator+=(const Accounting& rhs) noexcept {
    energy += rhs.energy;
    unicasts += rhs.unicasts;
    broadcasts += rhs.broadcasts;
    deliveries += rhs.deliveries;
    rounds += rhs.rounds;
    bits += rhs.bits;
    return *this;
  }
};

/// Per-phase × per-kind energy/message matrix plus per-phase round counts —
/// the measurable form of the paper's Thm 5.3 breakdown and §V-A message-
/// class attributions. Cells accumulate in charge order, so a matrix rebuilt
/// by replaying the telemetry event stream is bitwise identical (tested).
struct EnergyBreakdown {
  static constexpr std::size_t kPhases =
      static_cast<std::size_t>(PhaseTag::kCount);
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(MsgKind::kCount);

  struct Cell {
    double energy = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;  ///< wire bits, when the sender had a codec
    [[nodiscard]] bool operator==(const Cell&) const = default;
  };

  std::array<std::array<Cell, kKinds>, kPhases> cells{};
  std::array<std::uint64_t, kPhases> unicasts{};
  std::array<std::uint64_t, kPhases> broadcasts{};
  std::array<std::uint64_t, kPhases> deliveries{};
  std::array<std::uint64_t, kPhases> rounds{};

  [[nodiscard]] Cell& cell(PhaseTag phase, MsgKind kind) {
    return cells[static_cast<std::size_t>(phase)]
                [static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const Cell& cell(PhaseTag phase, MsgKind kind) const {
    return cells[static_cast<std::size_t>(phase)]
                [static_cast<std::size_t>(kind)];
  }

  /// THE definition of a phase's accounting: energy is the row sum over
  /// kinds, in kind order. Every consumer (EoptResult step totals, the CLI
  /// --breakdown matrix footer) derives from this one function, so the
  /// reported breakdowns cannot disagree — not even in the last ulp.
  [[nodiscard]] Accounting phase_total(PhaseTag phase) const {
    const std::size_t p = static_cast<std::size_t>(phase);
    Accounting out;
    for (const Cell& c : cells[p]) {
      out.energy += c.energy;
      out.bits += c.bits;
    }
    out.unicasts = unicasts[p];
    out.broadcasts = broadcasts[p];
    out.deliveries = deliveries[p];
    out.rounds = rounds[p];
    return out;
  }

  [[nodiscard]] bool operator==(const EnergyBreakdown&) const = default;
};

class EnergyMeter {
 public:
  explicit EnergyMeter(geometry::PathLoss model = {}) : model_(model) {}

  void charge_unicast(double distance) {
    charge_unicast(kAnonymousSender, kAnonymousSender, distance);
  }

  /// Sender-attributed unicast: also feeds the per-node ledger when enabled.
  void charge_unicast(std::uint32_t from, double distance) {
    charge_unicast(from, kAnonymousSender, distance);
  }

  /// Fully-attributed unicast: sender, receiver, distance. The receiver is
  /// telemetry-only (awake-round tracking, trace records); prefer this
  /// overload wherever the callsite knows who it is talking to.
  void charge_unicast(std::uint32_t from, std::uint32_t to, double distance) {
    const double cost = model_.cost(distance);
    totals_.energy += cost;
    ++totals_.unicasts;
    ++totals_.deliveries;
    totals_.bits += bits_;
    attribute(from, cost);
    if (breakdown_on_) {
      EnergyBreakdown::Cell& c = breakdown_.cell(phase_, kind_);
      c.energy += cost;
      ++c.messages;
      c.bits += bits_;
      const std::size_t p = static_cast<std::size_t>(phase_);
      ++breakdown_.unicasts[p];
      ++breakdown_.deliveries[p];
    }
    if (telemetry_ != nullptr) {
      TelemetryEvent event;
      event.type = EventType::kUnicast;
      stamp(event);
      event.from = from;
      event.to = to;
      event.reach = distance;
      event.energy = cost;
      telemetry_->record(event);
    }
  }

  void charge_broadcast(double radius, std::size_t receivers) {
    charge_broadcast(kAnonymousSender, radius, receivers);
  }

  void charge_broadcast(std::uint32_t from, double radius,
                        std::size_t receivers) {
    const double cost = model_.cost(radius);
    totals_.energy += cost;
    ++totals_.broadcasts;
    totals_.deliveries += receivers;
    totals_.bits += bits_;
    attribute(from, cost);
    if (breakdown_on_) {
      EnergyBreakdown::Cell& c = breakdown_.cell(phase_, kind_);
      c.energy += cost;
      ++c.messages;
      c.bits += bits_;
      const std::size_t p = static_cast<std::size_t>(phase_);
      ++breakdown_.broadcasts[p];
      breakdown_.deliveries[p] += receivers;
    }
    if (telemetry_ != nullptr) {
      TelemetryEvent event;
      event.type = EventType::kBroadcast;
      stamp(event);
      event.from = from;
      event.receivers = static_cast<std::uint32_t>(receivers);
      event.reach = radius;
      event.energy = cost;
      telemetry_->record(event);
    }
  }

  /// Record a non-charge event (drop, suppression, ARQ bookkeeping) with the
  /// meter's current phase/kind/fragment/round context. No-op without
  /// attached telemetry; never touches Accounting or the breakdown.
  void note_event(EventType type, std::uint32_t from, std::uint32_t to,
                  double reach = 0.0, std::uint64_t value = 0) {
    if (telemetry_ == nullptr) return;
    TelemetryEvent event;
    event.type = type;
    stamp(event);
    event.from = from;
    event.to = to;
    event.reach = reach;
    event.value = value;
    telemetry_->record(event);
  }

  /// Track each node's transmit-energy ledger (the paper's motivation is
  /// battery life: the hottest node's burn bounds the network lifetime, a
  /// dimension the total hides). Off by default.
  void enable_per_node(std::size_t n) { per_node_.assign(n, 0.0); }
  [[nodiscard]] const std::vector<double>& per_node() const noexcept {
    return per_node_;
  }
  /// The lifetime bound: the largest single-node energy (0 if disabled).
  [[nodiscard]] double hottest_node() const noexcept {
    double worst = 0.0;
    for (const double e : per_node_) worst = std::max(worst, e);
    return worst;
  }

  // -- Telemetry context ---------------------------------------------------

  /// Accumulate the per-phase × per-kind matrix (off by default; ~1 KiB of
  /// meter state plus a few adds per charge when on).
  void enable_breakdown() { breakdown_on_ = true; }
  [[nodiscard]] bool breakdown_enabled() const noexcept {
    return breakdown_on_;
  }
  [[nodiscard]] const EnergyBreakdown& breakdown() const noexcept {
    return breakdown_;
  }

  /// Attach an event hub. Inert telemetry (no sink, no aggregation) is
  /// dropped here so charge paths only ever test one pointer.
  void attach_telemetry(Telemetry* telemetry) noexcept {
    telemetry_ = (telemetry != nullptr && telemetry->active()) ? telemetry
                                                               : nullptr;
  }
  [[nodiscard]] Telemetry* telemetry() const noexcept { return telemetry_; }

  void set_phase(PhaseTag phase) noexcept { phase_ = phase; }
  [[nodiscard]] PhaseTag phase() const noexcept { return phase_; }
  void set_kind(MsgKind kind) noexcept { kind_ = kind; }
  [[nodiscard]] MsgKind kind() const noexcept { return kind_; }
  void set_fragment(std::uint32_t fragment) noexcept { fragment_ = fragment; }
  void clear_fragment() noexcept { fragment_ = kNoEventNode; }
  [[nodiscard]] std::uint32_t fragment() const noexcept { return fragment_; }

  /// Raw flag byte (kEventFlagArq | kEventFlagRetransmit). The getter/raw
  /// setter exist for engines that capture the ambient context at send time
  /// and replay it later (DistributedNetwork's round-barrier charge replay)
  /// — drivers should keep using set_arq_frame / clear_arq_frame.
  [[nodiscard]] std::uint8_t flags() const noexcept { return flags_; }
  void set_flags(std::uint8_t flags) noexcept { flags_ = flags; }

  /// Wire size of the next charged transmission(s), in bits. Engines set
  /// this from their `WireFormat<Msg>` immediately before each charge;
  /// ArqLink adds frame headers on top of the ambient payload size. 0 (the
  /// default and the no-codec value) means "unmeasured" and is elided from
  /// traces. Like kind/flags, this is ambient context — it never affects
  /// the energy math.
  [[nodiscard]] std::uint32_t bits() const noexcept { return bits_; }
  void set_bits(std::uint32_t bits) noexcept { bits_ = bits; }
  void clear_bits() noexcept { bits_ = 0; }

  /// Tag the next charges as ARQ-managed frames (retransmit = timeout
  /// re-send rather than first attempt). Only ArqLink sets these; the
  /// replay validator keys ArqStats reconstruction off them.
  void set_arq_frame(bool retransmit) noexcept {
    flags_ = static_cast<std::uint8_t>(
        kEventFlagArq | (retransmit ? kEventFlagRetransmit : 0));
  }
  void clear_arq_frame() noexcept { flags_ = 0; }

  /// RAII phase setter: restores the previous phase on scope exit, so
  /// nested stages compose and early returns can't leak a stale tag.
  class PhaseScope {
   public:
    PhaseScope(EnergyMeter& meter, PhaseTag phase)
        : meter_(meter), saved_(meter.phase()) {
      meter_.set_phase(phase);
    }
    ~PhaseScope() { meter_.set_phase(saved_); }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    EnergyMeter& meter_;
    PhaseTag saved_;
  };
  [[nodiscard]] PhaseScope scoped_phase(PhaseTag phase) {
    return PhaseScope(*this, phase);
  }

  // ------------------------------------------------------------------------

  void tick_round() { tick_rounds(1); }
  void tick_rounds(std::uint64_t k) {
    if (k == 0) return;  // no event either — replay sees the same stream
    totals_.rounds += k;
    if (breakdown_on_)
      breakdown_.rounds[static_cast<std::size_t>(phase_)] += k;
    if (telemetry_ != nullptr) {
      TelemetryEvent event;
      event.type = EventType::kRound;
      stamp(event);  // round stamped after the increment: clock-final value
      event.bits = 0;  // clock ticks carry no frame, whatever is ambient
      event.value = k;
      telemetry_->record(event);
    }
  }

  [[nodiscard]] const Accounting& totals() const noexcept { return totals_; }
  [[nodiscard]] const geometry::PathLoss& model() const noexcept { return model_; }

 private:
  static constexpr std::uint32_t kAnonymousSender =
      static_cast<std::uint32_t>(-1);

  void attribute(std::uint32_t from, double cost) {
    if (from < per_node_.size()) per_node_[from] += cost;
  }

  /// Copy the ambient context (phase/kind/flags/fragment/bits/clock) into
  /// event.
  void stamp(TelemetryEvent& event) const noexcept {
    event.kind = kind_;
    event.phase = phase_;
    event.flags = flags_;
    event.fragment = fragment_;
    event.bits = bits_;
    event.round = totals_.rounds;
  }

  geometry::PathLoss model_;
  Accounting totals_;
  std::vector<double> per_node_;

  // Telemetry context (all inert unless opted into).
  bool breakdown_on_ = false;
  EnergyBreakdown breakdown_{};
  Telemetry* telemetry_ = nullptr;
  PhaseTag phase_ = PhaseTag::kRun;
  MsgKind kind_ = MsgKind::kData;
  std::uint8_t flags_ = 0;
  std::uint32_t fragment_ = kNoEventNode;
  std::uint32_t bits_ = 0;
};

}  // namespace emst::sim
