// Tests for the JSONL trace format and its checker (docs/TELEMETRY.md):
// `parse_event_line` is the exact inverse of `JsonlTraceSink::on_event`,
// `check_trace` accepts the framed trace of every driver and fault mode,
// blames the right line of every kind of bad trace, including the
// non-canonical spellings the writer never produces, and gives a verdict,
// without crashing, on mutated bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "emst/geometry/sampling.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/run.hpp"
#include "emst/run_flags.hpp"
#include "emst/sim/chaos.hpp"
#include "emst/sim/oracle.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/sim/trace_replay.hpp"
#include "emst/support/rng.hpp"

namespace emst {
namespace {

using sim::EventType;
using sim::MsgKind;
using sim::PhaseTag;

sim::TraceCheck check_text(const std::string& text) {
  std::istringstream in(text);
  return sim::check_trace(in);
}

std::string jsonl(std::span<const sim::TelemetryEvent> events) {
  std::ostringstream out;
  sim::JsonlTraceSink sink(out);
  for (const sim::TelemetryEvent& e : events) sink.on_event(e);
  return out.str();
}

/// One event of every type, each keeping the event rules, with every
/// optional field somewhere.
std::vector<sim::TelemetryEvent> sample_events() {
  constexpr std::uint8_t kArq = sim::kEventFlagArq;
  constexpr std::uint8_t kRetransmit = sim::kEventFlagArq |
                                       sim::kEventFlagRetransmit;
  return {
      {.type = EventType::kUnicast, .kind = MsgKind::kConnect, .from = 1,
       .to = 2, .fragment = 1, .bits = 40, .reach = 0.125, .energy = 0.015625},
      {.type = EventType::kBroadcast, .kind = MsgKind::kAnnounce,
       .phase = PhaseTag::kStep1, .from = 2, .receivers = 3, .fragment = 1,
       .bits = 30, .reach = 0.3, .energy = 0.09},
      {.type = EventType::kUnicast, .kind = MsgKind::kCensus,
       .phase = PhaseTag::kCensus, .flags = kArq, .from = 1, .to = 2,
       .bits = 57, .round = 1, .reach = 0.1, .energy = 0.01},
      {.type = EventType::kLoss, .kind = MsgKind::kCensus,
       .phase = PhaseTag::kCensus, .from = 1, .to = 2, .round = 1,
       .reach = 0.1},
      {.type = EventType::kArqTimeout, .phase = PhaseTag::kCensus, .from = 1,
       .to = 2, .round = 3, .value = 2},
      {.type = EventType::kUnicast, .kind = MsgKind::kCensus,
       .phase = PhaseTag::kCensus, .flags = kRetransmit, .from = 1, .to = 2,
       .bits = 57, .round = 3, .reach = 0.1, .energy = 0.01},
      {.type = EventType::kArqDeliver, .phase = PhaseTag::kCensus, .from = 1,
       .to = 2, .round = 3},
      {.type = EventType::kUnicast, .kind = MsgKind::kArqAck,
       .phase = PhaseTag::kCensus, .flags = kArq, .from = 2, .to = 1,
       .bits = 17, .round = 3, .reach = 0.1, .energy = 0.01},
      {.type = EventType::kArqDuplicate, .phase = PhaseTag::kCensus,
       .from = 1, .to = 2, .round = 3},
      {.type = EventType::kArqGiveUp, .from = 3, .to = 4, .round = 4},
      {.type = EventType::kCrashDrop, .kind = MsgKind::kReport,
       .phase = PhaseTag::kStep2, .from = 5, .to = 4, .round = 4,
       .reach = 0.2},
      {.type = EventType::kSuppress, .from = 4, .to = 5, .round = 4},
      {.type = EventType::kRound, .phase = PhaseTag::kStep2, .round = 5,
       .value = 1},
      {.type = EventType::kCrashInject, .from = 4, .round = 5, .value = 9},
      {.type = EventType::kOracleViolation, .round = 5, .value = 1},
  };
}

/// `events` framed as emst_cli frames a trace: header, events, and the
/// summary of their replay.
std::string frame(const std::vector<sim::TelemetryEvent>& events,
                  const sim::TraceHeader& header = {
                      .algo = "sync", .n = 16, .seed = 5}) {
  std::ostringstream out;
  sim::write_trace_header(out, header);
  out << jsonl(events);
  const sim::ReplayTotals replay = sim::replay_events(events);
  sim::write_trace_summary(out, replay.totals, replay.faults, replay.arq);
  return out.str();
}

// ------------------------------------------------------------------- jsonl

sim::Topology random_topology(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::Topology(geometry::uniform_points(n, rng),
                       rgg::connectivity_radius(n));
}

TEST(TelemetryJsonl, OneParseableLinePerEventPlusFraming) {
  const sim::Topology topo = random_topology(40, 17);
  std::ostringstream out;
  sim::JsonlTraceSink jsonl(out);
  sim::MemoryTraceSink memory;
  // Write the trace while also buffering, to compare counts.
  sim::write_trace_header(
      out, {.algo = "sync_ghs", .n = topo.node_count(), .seed = 17});
  sim::Telemetry telemetry(&jsonl);
  sim::RunConfig cfg;
  cfg.telemetry = &telemetry;
  const ghs::SyncGhsResult result = ghs::run_sync_ghs(topo, cfg);
  sim::write_trace_summary(out, result.run.totals, result.run.faults,
                           result.run.arq);

  sim::Telemetry buffered(&memory);
  sim::RunConfig again = cfg;
  again.telemetry = &buffered;
  (void)ghs::run_sync_ghs(topo, again);

  const std::string text = out.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, memory.events().size() + 2);  // header + events + summary
  const sim::TraceCheck check = check_text(text);
  EXPECT_TRUE(check.ok()) << "line " << check.line << ": " << check.error;
  EXPECT_EQ(check.header.algo, "sync_ghs");
  EXPECT_EQ(check.replay.events, memory.events().size());
  EXPECT_GT(check.replay.totals.unicasts, 0u);
  EXPECT_GT(check.replay.totals.broadcasts, 0u);
}

// A fixed mix of runs in which every field the sink can write (optional
// fields, ARQ flags, round values, fractional reaches and energies) appears.
void run_mix(sim::TraceSink& sink) {
  sim::Telemetry telemetry(&sink);
  const Instance inst = sample_instance(300, 11);
  for (const Driver driver : {Driver::kSyncGhs, Driver::kEopt,
                              Driver::kClassicGhsCached, Driver::kCoNnt}) {
    RunConfig cfg = config_for(driver);
    cfg.telemetry = &telemetry;
    if (driver == Driver::kEopt) {
      cfg.faults.loss = 0.1;
      cfg.faults.seed = 12;
      cfg.arq.enabled = true;
    }
    (void)run(inst, cfg);
  }
}

// Absolute bytes of the run mix's JSONL event lines. The figures belong to
// the toolchain they were captured with, as in pinned_outputs_test.cpp: at
// α = 2 energy is PathLoss::cost's scale·d·d, with no libm call, but libm
// enters through std::log in rgg::connectivity_radius and
// rgg::giant_threshold and through std::log2 in Co-NNT's probe schedule,
// and the line format prints every double in full.
constexpr const char* kJsonlToolchain = "GCC 12.2, glibc 2.36, x86-64";
constexpr std::uint64_t kJsonlBytes = 6014169;
constexpr std::uint64_t kJsonlFnv1a = 0xd89b9023b47dcf79;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(TelemetryJsonl, PinnedBytesOfAFixedRunMix) {
  std::ostringstream out;
  sim::JsonlTraceSink jsonl(out);
  run_mix(jsonl);
  const std::string text = out.str();
  SCOPED_TRACE(testing::Message() << "pinned on " << kJsonlToolchain);
  EXPECT_EQ(text.size(), kJsonlBytes);
  EXPECT_EQ(fnv1a(text), kJsonlFnv1a)
      << std::hex << "observed 0x" << fnv1a(text);
}

TEST(TelemetryJsonl, RunMixLinesParseBackToTheirEvents) {
  sim::MemoryTraceSink memory;
  run_mix(memory);
  const std::vector<sim::TelemetryEvent>& events = memory.events();
  const std::string text = jsonl(events);
  EXPECT_EQ(text.size(), kJsonlBytes);

  std::vector<sim::TelemetryEvent> parsed;
  std::istringstream in(text);
  std::string why;
  for (std::string line; std::getline(in, line);) {
    sim::TelemetryEvent event;
    ASSERT_TRUE(sim::parse_event_line(line, event, &why)) << line << ": "
                                                          << why;
    parsed.push_back(event);
  }
  ASSERT_EQ(parsed.size(), events.size());
  EXPECT_TRUE(parsed == events);
  EXPECT_EQ(jsonl(parsed), text);

  const sim::ReplayTotals from_lines = sim::replay_events(parsed);
  const sim::ReplayTotals from_memory = sim::replay_events(events);
  EXPECT_EQ(from_lines.violation, "") << "event " << from_lines.violation_index;
  EXPECT_EQ(from_lines.totals.energy, from_memory.totals.energy);
  EXPECT_EQ(from_lines.totals.messages(), from_memory.totals.messages());
  EXPECT_EQ(from_lines.totals.bits, from_memory.totals.bits);
  EXPECT_EQ(from_lines.arq.retransmissions, from_memory.arq.retransmissions);
  EXPECT_TRUE(from_lines.breakdown == from_memory.breakdown);
}

// ------------------------------------------------------------------- check

TEST(TraceCheck, AcceptsEveryDriverAndModeFramedAsTheCliFramesIt) {
  // emst_cli's instance and framing, in process.
  constexpr std::size_t kN = 200;
  constexpr std::uint64_t kSeed = 5;
  support::Rng rng(kSeed);
  const sim::Topology topo(geometry::uniform_points(kN, rng),
                           rgg::connectivity_radius(kN, 1.6));
  enum class Mode { kFaultFree, kLossyArq, kKillLeader };
  const std::pair<Driver, Mode> runs[] = {
      {Driver::kClassicGhs, Mode::kFaultFree},
      {Driver::kClassicGhsCached, Mode::kFaultFree},
      {Driver::kSyncGhs, Mode::kFaultFree},
      {Driver::kSyncGhsProbe, Mode::kFaultFree},
      {Driver::kEopt, Mode::kFaultFree},
      {Driver::kCoNnt, Mode::kFaultFree},
      {Driver::kCoNntAxis, Mode::kFaultFree},
      {Driver::kSyncGhs, Mode::kLossyArq},
      {Driver::kSyncGhsProbe, Mode::kLossyArq},
      {Driver::kEopt, Mode::kLossyArq},
      {Driver::kClassicGhs, Mode::kKillLeader},
      {Driver::kSyncGhs, Mode::kKillLeader},
      {Driver::kEopt, Mode::kKillLeader},
      {Driver::kCoNnt, Mode::kKillLeader},
  };
  for (const auto& [driver, mode] : runs) {
    SCOPED_TRACE(testing::Message() << driver_name(driver) << " mode "
                                    << static_cast<int>(mode));
    RunFlags flags;
    if (mode == Mode::kLossyArq) {
      flags.faults.loss = 0.1;
      flags.arq.enabled = true;
    } else if (mode == Mode::kKillLeader) {
      flags.chaos_controller = sim::make_controller("kill_leader");
      flags.faults.controller = flags.chaos_controller.get();
      flags.oracle = std::make_unique<sim::InvariantOracle>();
    }
    RunConfig cfg = config_for(driver);
    flags.apply(cfg);
    std::ostringstream out;
    sim::write_trace_header(out, {.algo = driver_name(driver),
                                  .n = kN,
                                  .seed = kSeed,
                                  .driver = resolved_driver_name(driver, cfg)});
    sim::JsonlTraceSink jsonl(out);
    sim::Telemetry telemetry(&jsonl);
    cfg.telemetry = &telemetry;
    const RunResult result = run(topo, cfg);
    sim::write_trace_summary(out, result.totals, result.faults, result.arq);

    const std::string text = out.str();
    const sim::TraceCheck check = check_text(text);
    EXPECT_TRUE(check.ok()) << "line " << check.line << ": " << check.error;
    EXPECT_GT(check.replay.totals.messages(), 0u);
    if (mode == Mode::kLossyArq) {
      EXPECT_GT(check.replay.faults.lost, 0u);
      EXPECT_GT(check.replay.arq.retransmissions, 0u);
    }
    if (mode == Mode::kKillLeader) {
      EXPECT_NE(text.find("{\"ev\":\"cinj\""), std::string::npos);
      EXPECT_TRUE(flags.oracle->ok());
    }
  }
}

// ----------------------------------------------------------- rejections

/// A trace `check_trace` must reject, and where and why.
struct BadTrace {
  std::string name;
  std::string text;
  std::size_t line;    ///< the line it must blame
  std::string reason;  ///< part of the reason it must give
};

void PrintTo(const BadTrace& bad, std::ostream* os) { *os << bad.name; }

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// `lines` joined, with line `number` (1-based) replaced by `text`.
std::string with_line(std::vector<std::string> lines, std::size_t number,
                      const std::string& text) {
  lines[number - 1] = text;
  std::string joined;
  for (const std::string& line : lines) joined += line + '\n';
  return joined;
}

/// `text` with the first `from` replaced by `to` (unchanged if absent, so a
/// stale case shows up as an accepted trace).
std::string replaced(std::string text, std::string_view from,
                     std::string_view to) {
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// The value text of `"key":` on `line`.
std::string value_of(const std::string& line, const std::string& key) {
  const std::size_t start = line.find('"' + key + "\":") + key.size() + 3;
  return line.substr(start, line.find_first_of(",}", start) - start);
}

/// An event line of type `ev` at round 6 whose optional fields are `rest`.
std::string event_line(const std::string& ev, const std::string& rest) {
  return R"({"ev":")" + ev + R"(","kind":"data","phase":"run","round":6)" +
         rest + '}';
}

/// Bad traces that break a rule of the trace format.
std::vector<BadTrace> bad_traces() {
  const std::string good = frame(sample_events());
  const std::vector<std::string> lines = split_lines(good);
  const std::size_t last = lines.size();
  const std::string& summary = lines.back();
  // `event` inserted before the summary, which moves down a line.
  const auto with_event = [&](const std::string& event) {
    return with_line(lines, last, event + '\n' + summary);
  };
  const auto with_summary = [&](const std::string& line) {
    return with_line(lines, last, line);
  };
  const auto with_header = [&](const std::string& from, const std::string& to) {
    return with_line(lines, 1, replaced(lines.front(), from, to));
  };
  std::vector<std::string> without_summary = lines;
  without_summary.pop_back();

  std::vector<BadTrace> bad = {
      {"EmptyFile", "", 1, "at least a header and a summary"},
      {"HeaderOnly", lines.front() + '\n', 1,
       "at least a header and a summary"},
      {"WrongHeaderTag", with_header(R"("emst")", R"("emsx")"), 1,
       "not an emst trace header"},
      {"WrongVersion", with_header(R"("version":1)", R"("version":2)"), 1,
       "unsupported trace version 2"},
      {"ZeroThreads", with_header("}", R"(,"threads":0})"), 1,
       "invalid thread count"},
      {"NegativeRanks", with_header("}", R"(,"ranks":-1})"), 1,
       R"(field "ranks")"},
      {"DriverOfAnotherAlgo", with_header("}", R"(,"driver":"eopt"})"), 1,
       "does not match algo"},
      {"RanksWithoutTheCoNntActor",
       frame(sample_events(), {.algo = "connt", .n = 16, .seed = 5,
                               .ranks = 2, .driver = "connt"}),
       1, "forces the connt actor dispatch"},
      {"NoSummaryLine", with_line(without_summary, 1, lines.front()),
       last - 1, "last line is not a summary record"},
      {"NotJson", with_event("not json"), last, "not a JSON object"},
      {"TruncatedEventLine",
       with_event(replaced(event_line("uni", ""), "6}", "")), last,
       R"(field "round")"},
      {"MissingRequiredField",
       with_event(replaced(event_line("uni", ""), R"("phase":"run",)", "")),
       last, R"(missing required field "phase")"},
      {"UnknownEventType", with_event(event_line("teleport", "")), last,
       "unknown event type"},
      {"UnknownKind",
       with_event(replaced(event_line("uni", ""), "data", "gossip")), last,
       "unknown message kind"},
      {"UnknownPhase",
       with_event(replaced(event_line("uni", ""), "run", "step3")), last,
       "unknown phase"},
      {"NegativeBits", with_event(event_line("uni", R"(,"bits":-3)")), last,
       R"(field "bits")"},
      {"NonIntegerBits", with_event(event_line("uni", R"(,"bits":2.5)")), last,
       R"(field "bits")"},
      {"RoundEventWithBits",
       with_event(event_line("round", R"(,"bits":8,"value":1)")), last,
       "round events must not carry wire bits"},
      {"CrashInjectionWithEnergy",
       with_event(event_line("cinj", R"(,"from":4,"value":9,"energy":0.5)")),
       last, "cinj events must not carry wire bits or energy"},
      {"ArqDeliveryWithBits",
       with_event(event_line("adel", R"(,"from":1,"to":2,"bits":17)")), last,
       "adel events must not carry wire bits or energy"},
      {"ArqDuplicateWithFlags",
       with_event(event_line("adup", R"(,"from":1,"to":2,"flags":1)")), last,
       "adup events must not carry frame flags"},
      {"ArqFrameSmallerThanItsHeader",
       with_event(event_line("uni", R"(,"from":1,"to":2,"flags":1,"bits":5)")),
       last, "smaller than its own 17-bit header"},
      {"MissingSummaryCounter",
       with_summary(replaced(summary, ",\"lost\":" + value_of(summary, "lost"),
                             "")),
       last, R"(missing required field "lost")"},
      {"EnergyMismatch",
       with_summary(replaced(summary, value_of(summary, "energy"), "1.5")),
       last, "replayed energy="},
  };
  // Each summary counter off by one.
  for (std::size_t at = summary.find(",\""); at != std::string::npos;
       at = summary.find(",\"", at + 1)) {
    const std::string key =
        summary.substr(at + 2, summary.find('"', at + 2) - at - 2);
    const std::string value = value_of(summary, key);
    const std::string off = std::to_string(std::stoull(value) + 1);
    bad.push_back({"SummaryMismatch_" + key,
                   with_summary(replaced(summary, ",\"" + key + "\":" + value,
                                         ",\"" + key + "\":" + off)),
                   last, "replayed " + key + '='});
  }
  return bad;
}

/// Spellings a JSON reader would take but the writer never produces; the
/// reader is the writer's exact inverse, so it rejects them.
std::vector<BadTrace> non_canonical_traces() {
  const std::vector<std::string> lines = split_lines(frame(sample_events()));
  // Line `number` with its first `from` replaced by `to`.
  const auto edited = [&lines](std::size_t number, std::string_view from,
                               std::string_view to) {
    return with_line(lines, number, replaced(lines[number - 1], from, to));
  };
  const std::string energy = value_of(lines.back(), "energy");
  std::ostringstream ulp;
  ulp.precision(17);
  ulp << std::nextafter(std::stod(energy), 1.0);
  return {
      {"KeysOutOfOrder", edited(2, R"("from":1,"to":2)", R"("to":2,"from":1)"),
       2, R"(out-of-order field "from")"},
      {"RepeatedKey",
       edited(2, R"("fragment":1)", R"("fragment":1,"fragment":1)"), 2,
       R"(repeated or out-of-order field "fragment")"},
      {"UnknownKey", edited(2, "}", R"(,"note":"x"})"), 2,
       R"(unknown, repeated or out-of-order field "note")"},
      {"WhitespaceBetweenTokens", edited(2, R"("uni")", R"( "uni")"), 2,
       R"(field "ev")"},
      {"CarriageReturnLineEnd", edited(2, "}", "}\r"), 2, "unexpected text"},
      {"EscapedName", edited(2, R"("uni")", R"("\u0075ni")"), 2,
       R"(field "ev")"},
      {"FlagsAbove8Bits", edited(4, R"("flags":1)", R"("flags":257)"), 4,
       R"(field "flags")"},
      {"NodeAbove32Bits", edited(2, R"("from":1)", R"("from":4294967297)"), 2,
       R"(field "from")"},
      {"IntegerWrittenAsReal", edited(6, R"("value":2)", R"("value":2.0)"), 6,
       R"(field "value")"},
      {"NotANumberReach", edited(2, "0.125", "NaN"), 2, R"(field "reach")"},
      {"EnergyOffByOneUlp", edited(lines.size(), energy, ulp.str()),
       lines.size(), "replayed energy="},
  };
}

class RejectedTrace : public testing::TestWithParam<BadTrace> {};

TEST_P(RejectedTrace, BlamesTheBadLine) {
  const BadTrace& bad = GetParam();
  const sim::TraceCheck check = check_text(bad.text);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.line, bad.line) << check.error;
  EXPECT_NE(check.error.find(bad.reason), std::string::npos) << check.error;
}

std::string case_name(const testing::TestParamInfo<BadTrace>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(BadTraces, RejectedTrace,
                         testing::ValuesIn(bad_traces()), case_name);
INSTANTIATE_TEST_SUITE_P(NonCanonicalTraces, RejectedTrace,
                         testing::ValuesIn(non_canonical_traces()), case_name);

// ------------------------------------------------------------------ hostile

TEST(TraceCheck, HostileBytesGetAVerdict) {
  const std::string good = frame(sample_events());
  const sim::TraceCheck sample = check_text(good);
  ASSERT_TRUE(sample.ok()) << "line " << sample.line << ": " << sample.error;
  EXPECT_EQ(sample.replay.events, sample_events().size());

  // Every cut but the final newline's loses at least the summary's end.
  for (std::size_t size = 0; size + 1 < good.size(); ++size)
    EXPECT_FALSE(check_text(good.substr(0, size)).ok()) << "cut at " << size;

  // A carriage return or a NUL byte at every position.
  for (const char byte : {'\r', '\0'}) {
    for (std::size_t at = 0; at <= good.size(); ++at) {
      std::string hostile = good;
      hostile.insert(at, 1, byte);
      (void)check_text(hostile);
    }
  }

  // Seeded byte flips and inserted bytes.
  support::Rng rng(28);
  for (int i = 0; i < 2000; ++i) {
    std::string flipped = good;
    flipped[rng.uniform_int(flipped.size())] ^=
        static_cast<char>(1 + rng.uniform_int(255));
    (void)check_text(flipped);
    std::string inserted = good;
    inserted.insert(rng.uniform_int(inserted.size() + 1), 1,
                    static_cast<char>(rng.uniform_int(256)));
    (void)check_text(inserted);
  }

  // Every value in turn replaced by an extreme or malformed token. No JSON
  // number spells a non-finite value, so those are always rejected.
  const std::string_view tokens[] = {
      "123456789012345678901234567890", "-123456789012345678901234567890.5",
      "1e999", "-0", "0x10", "01", "1.", ".5", "\"\"", "\"\r\"",
      std::string_view("\0", 1)};
  const std::string_view non_finite[] = {"NaN", "nan", "inf", "-inf",
                                         "Infinity", "-Infinity"};
  for (std::size_t at = good.find("\":"); at != std::string::npos;
       at = good.find("\":", at + 1)) {
    const std::size_t start = at + 2;
    const std::size_t end = good.find_first_of(",}", start);
    for (const std::string_view token : tokens) {
      std::string hostile = good;
      hostile.replace(start, end - start, token);
      (void)check_text(hostile);
    }
    for (const std::string_view token : non_finite) {
      std::string hostile = good;
      hostile.replace(start, end - start, token);
      EXPECT_FALSE(check_text(hostile).ok()) << hostile;
    }
  }
}

}  // namespace
}  // namespace emst
