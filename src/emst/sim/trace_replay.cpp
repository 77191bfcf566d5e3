#include "emst/sim/trace_replay.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>

#include "emst/sim/wire.hpp"

namespace emst::sim {

namespace {

/// One ARQ-flagged unicast charge → the matching ArqStats send counter.
/// Frame bits split the same way: ACK frames → ack_bits, DATA frames (first
/// attempts and retransmissions alike) → data_bits.
void count_arq_frame(const TelemetryEvent& e, ArqStats& arq) {
  if ((e.flags & kEventFlagRetransmit) != 0) {
    ++arq.retransmissions;
    arq.data_bits += e.bits;
  } else if (e.kind == MsgKind::kArqAck) {
    ++arq.acks_sent;
    arq.ack_bits += e.bits;
  } else {
    ++arq.data_sent;
    arq.data_bits += e.bits;
  }
}

bool is_arq_meta(EventType type) {
  return type == EventType::kArqDeliver || type == EventType::kArqDuplicate ||
         type == EventType::kArqGiveUp || type == EventType::kArqTimeout;
}

// ------------------------------------------------------------- key lists
//
// The header's and the summary's fields, in the order they are written. The
// writers and the reader walk the same list, so the two cannot drift.

/// The header's fields after `"trace":"emst","version":1`. `written` says
/// whether the writer prints the field; the reader takes each as optional.
template <typename Header, typename Visit>
void for_each_header_field(Header& header, Visit&& visit) {
  visit("algo", header.algo, true);
  visit("n", header.n, true);
  visit("seed", header.seed, true);
  visit("threads", header.threads, header.threads > 1);
  visit("ranks", header.ranks, header.ranks > 0);
  visit("driver", header.driver, !header.driver.empty());
}

/// The summary's energy and its 17 counters.
template <typename Totals, typename Faults, typename Arq, typename Visit>
void for_each_summary_field(Totals& totals, Faults& faults, Arq& arq,
                            Visit&& visit) {
  visit("energy", totals.energy);
  visit("unicasts", totals.unicasts);
  visit("broadcasts", totals.broadcasts);
  visit("deliveries", totals.deliveries);
  visit("rounds", totals.rounds);
  visit("bits", totals.bits);
  visit("lost", faults.lost);
  visit("dropped_crashed", faults.dropped_crashed);
  visit("suppressed", faults.suppressed);
  visit("data_sent", arq.data_sent);
  visit("retransmissions", arq.retransmissions);
  visit("acks_sent", arq.acks_sent);
  visit("duplicates", arq.duplicates);
  visit("delivered", arq.delivered);
  visit("give_ups", arq.give_ups);
  visit("timeout_rounds", arq.timeout_rounds);
  visit("data_bits", arq.data_bits);
  visit("ack_bits", arq.ack_bits);
}

// ---------------------------------------------------------------- writing

std::string json_text(std::uint64_t value) {
  char buf[24];
  return {buf, std::to_chars(buf, buf + sizeof buf, value).ptr};
}

/// chars_format::general at precision 17 is printf's %.17g, the sink's
/// format, which round-trips every double.
std::string json_text(double value) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, value,
                             std::chars_format::general, 17)
                   .ptr};
}

/// Appends `"key":value`, after a comma unless it opens the object.
void append_field(std::string& line, std::string_view key,
                  const auto& value) {
  line += line.back() == '{' ? "\"" : ",\"";
  line += key;
  line += "\":";
  if constexpr (std::is_same_v<std::remove_cvref_t<decltype(value)>,
                               std::string>) {
    line += '"' + value + '"';
  } else {
    line += json_text(value);
  }
}

// ---------------------------------------------------------------- reading

/// Length of the JSON number at the start of `s` (RFC 8259:
/// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?), 0 if there is none.
std::size_t number_length(std::string_view s) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return 0;
  }
  std::size_t end = i;
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (digits()) end = i;
  }
  i = end;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (digits()) end = i;
  }
  return end;
}

/// Reads one line of the JSON subset the trace writers print: an object
/// whose keys come in a fixed order, with unescaped strings, unsigned
/// integers and finite doubles as values. The first failure sticks: it is
/// the one `error()` reports, and every later step does nothing.
class LineReader {
 public:
  explicit LineReader(std::string_view line) : line_(line), rest_(line) {}

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Consumes `text`, which opens the object whose fields follow.
  void open(std::string_view text) {
    if (ok() && !skip(text)) fail("not a JSON object");
    first_ = true;
  }

  /// Reads `"key":value` into `out` when the line continues with that key,
  /// and returns whether it did. A required key must; an optional one may
  /// be absent.
  template <typename T>
  bool field(std::string_view key, T& out, bool required) {
    if (!ok()) return false;
    const std::string_view before = rest_;
    if (!(skip(first_ ? "\"" : ",\"") && skip(key) && skip("\":"))) {
      rest_ = before;
      if (required) fail("missing required field \"" + std::string(key) + '"');
      return false;
    }
    first_ = false;
    if (!value(out)) fail(bad_value(key, out));
    return ok();
  }

  /// Consumes `text`, which closes the object, and requires the line to end
  /// there.
  void close(std::string_view text) {
    if (!ok() || (skip(text) && rest_.empty())) return;
    if (rest_.starts_with(",\"")) {
      const std::string_view key = rest_.substr(2, rest_.find('"', 2) - 2);
      fail("unknown, repeated or out-of-order field \"" + std::string(key) +
           '"');
    } else {
      const std::uint64_t column = line_.size() - rest_.size() + 1;
      fail("unexpected text at column " + json_text(column));
    }
  }

 private:
  bool skip(std::string_view text) {
    if (!rest_.starts_with(text)) return false;
    rest_.remove_prefix(text.size());
    return true;
  }

  void fail(std::string why) {
    if (ok()) error_ = std::move(why);
  }

  /// A string without escapes or control characters: the writers print
  /// names and algorithm spellings verbatim.
  bool value(std::string_view& out) {
    if (!rest_.starts_with('"')) return false;
    const std::size_t end = rest_.find('"', 1);
    if (end == std::string_view::npos) return false;
    const std::string_view body = rest_.substr(1, end - 1);
    for (const char c : body) {
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) return false;
    }
    out = body;
    rest_.remove_prefix(end + 1);
    return true;
  }
  bool value(std::string& out) {
    std::string_view body;
    if (!value(body)) return false;
    out.assign(body);
    return true;
  }

  /// An unsigned integer that fits `Number`, or a finite double.
  template <typename Number>
    requires std::unsigned_integral<Number> || std::same_as<Number, double>
  bool value(Number& out) {
    const std::string_view token = rest_.substr(0, number_length(rest_));
    if (std::is_integral_v<Number> &&
        token.find_first_of("-.eE") != std::string_view::npos)
      return false;
    Number parsed{};
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), parsed);
    if (ec != std::errc{} || end != token.data() + token.size() ||
        !std::isfinite(static_cast<double>(parsed)))
      return false;
    out = parsed;
    rest_.remove_prefix(token.size());
    return true;
  }

  template <typename T>
  static std::string bad_value(std::string_view key, const T&) {
    std::string why = "field \"" + std::string(key) + "\" is not ";
    if constexpr (std::is_same_v<T, double>) {
      return why + "a finite number";
    } else if constexpr (std::is_unsigned_v<T>) {
      const std::uint64_t max = std::numeric_limits<T>::max();
      return why + "an integer in [0, " + json_text(max) + "]";
    } else {
      return why + "a string without escapes";
    }
  }

  std::string_view line_;
  std::string_view rest_;
  bool first_ = true;
  std::string error_;
};

/// Matches `name` through the enum's own spelling function.
template <typename Enum>
bool parse_name(std::string_view name, std::string_view (*name_of)(Enum),
                Enum& out) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Enum::kCount); ++i) {
    if (name_of(static_cast<Enum>(i)) == name) {
      out = static_cast<Enum>(i);
      return true;
    }
  }
  return false;
}

bool fail(std::string* why, std::string reason) {
  if (why != nullptr) *why = std::move(reason);
  return false;
}

/// Reads the header line into `header`; returns why it is not a valid
/// header, or "" when it is.
std::string read_header(std::string_view line, TraceHeader& header) {
  LineReader in(line);
  std::string_view tag;
  std::uint64_t version = 0;
  in.open("{");
  in.field("trace", tag, true);
  in.field("version", version, true);
  bool has_driver = false;
  for_each_header_field(header, [&](std::string_view key, auto& field,
                                    bool /*written*/) {
    has_driver |= in.field(key, field, false) && key == "driver";
  });
  in.close("}");
  if (tag != "emst") return "first line is not an emst trace header";
  if (!in.ok()) return in.error();
  if (version != 1) return "unsupported trace version " + json_text(version);
  if (header.threads < 1) return "invalid thread count in header: 0";
  if (!has_driver) return "";
  // The Co-NNT algos silently dispatch to their node-actor implementation
  // under faults or ranks; the header must confess that dispatch, and with
  // ranks the plain choreographed variant is impossible.
  const std::string actor = header.algo + "-actor";
  if (header.driver != header.algo && header.driver != actor) {
    return "driver variant \"" + header.driver + "\" does not match algo \"" +
           header.algo + '"';
  }
  if (header.ranks > 0 &&
      (header.algo == "connt" || header.algo == "connt-axis") &&
      header.driver != actor) {
    return "ranks=" + json_text(header.ranks) + " forces the " + header.algo +
           " actor dispatch but the header records driver \"" +
           header.driver + '"';
  }
  return "";
}

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same(std::uint64_t a, std::uint64_t b) { return a == b; }

/// Reads the summary line and compares it with the replay; returns the
/// first field that does not match, or "" when every field does.
std::string check_summary(std::string_view line, const ReplayTotals& replay) {
  if (!line.starts_with("{\"summary\":{"))
    return "last line is not a summary record";
  LineReader in(line);
  in.open("{\"summary\":{");
  std::string mismatch;
  for_each_summary_field(
      replay.totals, replay.faults, replay.arq,
      [&](std::string_view key, const auto& replayed) {
        std::remove_cvref_t<decltype(replayed)> recorded{};
        in.field(key, recorded, true);
        if (in.ok() && mismatch.empty() && !same(recorded, replayed)) {
          mismatch = "replayed " + std::string(key) + '=' +
                     json_text(replayed) + " but the live run recorded " +
                     json_text(recorded);
        }
      });
  in.close("}}");
  return in.ok() ? mismatch : in.error();
}

}  // namespace

bool check_event(const TelemetryEvent& e, std::string* why) {
  const auto name = [&e] { return std::string(event_type_name(e.type)); };
  if (e.type == EventType::kRound && e.bits != 0)
    return fail(why, "round events must not carry wire bits");
  // Meta events never transmit anything: a crash injection (value = the
  // window's until-round), an oracle violation (value = the violation
  // index) and the ARQ session's bookkeeping, stamped sender → receiver.
  if ((is_arq_meta(e.type) || e.type == EventType::kCrashInject ||
       e.type == EventType::kOracleViolation) &&
      (e.bits != 0 || e.energy != 0.0)) {
    return fail(why, name() + " events must not carry wire bits or energy");
  }
  if (is_arq_meta(e.type) && e.flags != 0)
    return fail(why, name() + " events must not carry frame flags");
  if (e.type == EventType::kUnicast && (e.flags & kEventFlagArq) != 0 &&
      e.bits != 0 && e.bits < kArqHeaderBits) {
    return fail(why, "ARQ frame carries " + json_text(std::uint64_t{e.bits}) +
                         " bits — smaller than its own " +
                         json_text(std::uint64_t{kArqHeaderBits}) +
                         "-bit header");
  }
  return true;
}

void ReplayTotals::add(const TelemetryEvent& e) {
  if (violation.empty() && !check_event(e, &violation))
    violation_index = events;
  ++events;
  const std::size_t p = static_cast<std::size_t>(e.phase);
  switch (e.type) {
    case EventType::kUnicast: {
      totals.energy += e.energy;
      ++totals.unicasts;
      ++totals.deliveries;
      totals.bits += e.bits;
      EnergyBreakdown::Cell& c = breakdown.cell(e.phase, e.kind);
      c.energy += e.energy;
      ++c.messages;
      c.bits += e.bits;
      ++breakdown.unicasts[p];
      ++breakdown.deliveries[p];
      if ((e.flags & kEventFlagArq) != 0) count_arq_frame(e, arq);
      break;
    }
    case EventType::kBroadcast: {
      totals.energy += e.energy;
      ++totals.broadcasts;
      totals.deliveries += e.receivers;
      totals.bits += e.bits;
      EnergyBreakdown::Cell& c = breakdown.cell(e.phase, e.kind);
      c.energy += e.energy;
      ++c.messages;
      c.bits += e.bits;
      ++breakdown.broadcasts[p];
      breakdown.deliveries[p] += e.receivers;
      break;
    }
    case EventType::kLoss:
      ++faults.lost;
      break;
    case EventType::kCrashDrop:
      ++faults.dropped_crashed;
      break;
    case EventType::kSuppress:
      ++faults.suppressed;
      break;
    case EventType::kArqDeliver:
      ++arq.delivered;
      break;
    case EventType::kArqDuplicate:
      ++arq.duplicates;
      break;
    case EventType::kArqGiveUp:
      ++arq.give_ups;
      break;
    case EventType::kArqTimeout:
      arq.timeout_rounds += e.value;
      break;
    case EventType::kRound:
      totals.rounds += e.value;
      breakdown.rounds[p] += e.value;
      break;
    case EventType::kCrashInject:
    case EventType::kOracleViolation:
      // Chaos/oracle markers: no charge, no counter — offline tooling
      // reads them, the replayed totals must ignore them.
      break;
    case EventType::kCount:
      break;
  }
}

ReplayTotals replay_events(std::span<const TelemetryEvent> events) {
  ReplayTotals out;
  for (const TelemetryEvent& e : events) out.add(e);
  return out;
}

bool parse_event_line(std::string_view line, TelemetryEvent& event,
                      std::string* why) {
  LineReader in(line);
  TelemetryEvent e;
  std::string_view type;
  std::string_view kind;
  std::string_view phase;
  in.open("{");
  in.field("ev", type, true);
  in.field("kind", kind, true);
  in.field("phase", phase, true);
  in.field("round", e.round, true);
  in.field("from", e.from, false);
  in.field("to", e.to, false);
  in.field("receivers", e.receivers, false);
  in.field("fragment", e.fragment, false);
  in.field("flags", e.flags, false);
  in.field("bits", e.bits, false);
  in.field("value", e.value, false);
  in.field("reach", e.reach, false);
  in.field("energy", e.energy, false);
  in.close("}");
  if (!in.ok()) return fail(why, in.error());
  if (!parse_name(type, event_type_name, e.type))
    return fail(why, "unknown event type \"" + std::string(type) + '"');
  if (!parse_name(kind, msg_kind_name, e.kind))
    return fail(why, "unknown message kind \"" + std::string(kind) + '"');
  if (!parse_name(phase, phase_tag_name, e.phase))
    return fail(why, "unknown phase \"" + std::string(phase) + '"');
  event = e;
  return true;
}

void write_trace_header(std::ostream& out, const TraceHeader& header) {
  std::string line = "{\"trace\":\"emst\",\"version\":1";
  for_each_header_field(header, [&line](std::string_view key,
                                        const auto& field, bool written) {
    if (written) append_field(line, key, field);
  });
  line += "}\n";
  out << line;
}

void write_trace_summary(std::ostream& out, const Accounting& totals,
                         const FaultStats& faults, const ArqStats& arq) {
  std::string line = "{\"summary\":{";
  for_each_summary_field(totals, faults, arq,
                         [&line](std::string_view key, const auto& field) {
                           append_field(line, key, field);
                         });
  line += "}}\n";
  out << line;
}

TraceCheck check_trace(std::istream& in) {
  TraceCheck check;
  std::size_t lines_read = 0;
  // The next non-blank line and its 1-based number; false at end of input.
  const auto next_line = [&](std::string& text, std::size_t& number) {
    while (std::getline(in, text)) {
      ++lines_read;
      if (text.find_first_not_of(" \t\r\v\f") != std::string::npos) {
        number = lines_read;
        return true;
      }
    }
    return false;
  };
  const auto fail_at = [&check](std::size_t number, std::string why) {
    check.line = number;
    check.error = std::move(why);
    return check;
  };

  std::string line;
  std::string next;
  std::size_t at = 0;
  std::size_t next_at = 0;
  if (!next_line(line, at) || !next_line(next, next_at))
    return fail_at(1, "trace needs at least a header and a summary line");
  if (std::string why = read_header(line, check.header); !why.empty())
    return fail_at(at, std::move(why));

  // Every line after the header but the last is an event: hold each back
  // until the next one shows it was not the last.
  line.swap(next);
  at = next_at;
  TelemetryEvent event;
  std::string why;
  while (next_line(next, next_at)) {
    if (!parse_event_line(line, event, &why))
      return fail_at(at, std::move(why));
    check.replay.add(event);
    if (!check.replay.violation.empty())
      return fail_at(at, check.replay.violation);
    line.swap(next);
    at = next_at;
  }
  if (std::string mismatch = check_summary(line, check.replay);
      !mismatch.empty())
    return fail_at(at, std::move(mismatch));
  return check;
}

}  // namespace emst::sim
