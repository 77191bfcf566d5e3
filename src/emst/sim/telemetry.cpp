#include "emst/sim/telemetry.hpp"

#include <charconv>
#include <cstring>

namespace emst::sim {
namespace {

/// One JSONL line under construction in a stack buffer. The longest event
/// line, with every optional field present at its widest (20-digit 64-bit
/// counters, 24-character doubles), is under 300 bytes.
class LineBuffer {
 public:
  void text(std::string_view s) {
    std::memcpy(end_, s.data(), s.size());
    end_ += s.size();
  }
  template <typename Int>
  void integer(Int value) {
    end_ = std::to_chars(end_, buf_ + sizeof buf_, value).ptr;
  }
  /// chars_format::general at precision 17 is printf's %.17g in the C
  /// locale, which round-trips every double.
  void real(double value) {
    end_ = std::to_chars(end_, buf_ + sizeof buf_, value,
                         std::chars_format::general, 17)
               .ptr;
  }
  [[nodiscard]] const char* data() const { return buf_; }
  [[nodiscard]] std::streamsize size() const { return end_ - buf_; }

 private:
  char buf_[512];
  char* end_ = buf_;
};

}  // namespace

std::string_view phase_tag_name(PhaseTag phase) {
  switch (phase) {
    case PhaseTag::kRun: return "run";
    case PhaseTag::kStep1: return "step1";
    case PhaseTag::kCensus: return "census";
    case PhaseTag::kStep2: return "step2";
    case PhaseTag::kCount: break;
  }
  return "?";
}

std::string_view msg_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kData: return "data";
    case MsgKind::kConnect: return "connect";
    case MsgKind::kInitiate: return "initiate";
    case MsgKind::kTest: return "test";
    case MsgKind::kAccept: return "accept";
    case MsgKind::kReject: return "reject";
    case MsgKind::kReport: return "report";
    case MsgKind::kChangeRoot: return "change_root";
    case MsgKind::kAnnounce: return "announce";
    case MsgKind::kCensus: return "census";
    case MsgKind::kRequest: return "request";
    case MsgKind::kReply: return "reply";
    case MsgKind::kConnection: return "connection";
    case MsgKind::kArqAck: return "arq_ack";
    case MsgKind::kCount: break;
  }
  return "?";
}

std::string_view event_type_name(EventType type) {
  switch (type) {
    case EventType::kUnicast: return "uni";
    case EventType::kBroadcast: return "bcast";
    case EventType::kLoss: return "loss";
    case EventType::kCrashDrop: return "crash";
    case EventType::kSuppress: return "sup";
    case EventType::kArqDeliver: return "adel";
    case EventType::kArqDuplicate: return "adup";
    case EventType::kArqGiveUp: return "agup";
    case EventType::kArqTimeout: return "atmo";
    case EventType::kRound: return "round";
    case EventType::kCrashInject: return "cinj";
    case EventType::kOracleViolation: return "oinv";
    case EventType::kCount: break;
  }
  return "?";
}

void JsonlTraceSink::on_event(const TelemetryEvent& event) {
  // Literal copies and std::to_chars into one stack line, then one write:
  // optional fields are elided when at their defaults so idle-heavy traces
  // stay small, and doubles print as %.17g would, so they stay exact across
  // a JSONL round-trip (sim::check_trace replays the file and demands
  // bitwise-equal energy totals).
  LineBuffer line;
  line.text("{\"ev\":\"");
  line.text(event_type_name(event.type));
  line.text("\",\"kind\":\"");
  line.text(msg_kind_name(event.kind));
  line.text("\",\"phase\":\"");
  line.text(phase_tag_name(event.phase));
  line.text("\",\"round\":");
  line.integer(event.round);
  auto field = [&line](std::string_view key, auto value) {
    line.text(key);
    line.integer(value);
  };
  if (event.from != kNoEventNode) field(",\"from\":", event.from);
  if (event.to != kNoEventNode) field(",\"to\":", event.to);
  if (event.receivers != 0) field(",\"receivers\":", event.receivers);
  if (event.fragment != kNoEventNode) field(",\"fragment\":", event.fragment);
  if (event.flags != 0)
    field(",\"flags\":", static_cast<unsigned>(event.flags));
  if (event.bits != 0) field(",\"bits\":", event.bits);
  if (event.value != 0) field(",\"value\":", event.value);
  if (event.reach != 0.0) {
    line.text(",\"reach\":");
    line.real(event.reach);
  }
  if (event.energy != 0.0) {
    line.text(",\"energy\":");
    line.real(event.energy);
  }
  line.text("}\n");
  out_.write(line.data(), line.size());
}

void TelemetryAggregate::touch(std::uint32_t node, std::uint64_t round) {
  // last_active_ stores round+1 so 0 can mean "never active".
  if (node >= last_active_.size()) return;
  if (last_active_[node] != round + 1) {
    last_active_[node] = round + 1;
    ++awake_rounds[node];
  }
}

void TelemetryAggregate::apply(const TelemetryEvent& event) {
  switch (event.type) {
    case EventType::kUnicast:
      if (event.from < node_energy.size()) node_energy[event.from] += event.energy;
      touch(event.from, event.round);
      touch(event.to, event.round);
      break;
    case EventType::kBroadcast:
      // Broadcast listeners are NOT awake: receiving costs nothing in the
      // paper's model (§II), only the sender spends the round transmitting.
      if (event.from < node_energy.size()) node_energy[event.from] += event.energy;
      touch(event.from, event.round);
      break;
    case EventType::kRound:
      rounds += event.value;
      break;
    default:
      break;  // fault / ARQ meta events carry no energy or activity
  }
}

}  // namespace emst::sim
