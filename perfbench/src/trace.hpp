// Timing, span and counting helpers of the repository benchmark
// (perfbench/README.md).
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer of the library; nothing inside src/ is instrumented. They are
// kept in memory and written once, at the end of a traced run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "emst/sim/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set of this process and of its reaped children, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Restrict this process, and the processes it forks from now on, to the
/// first `count` CPUs it was allowed at start-up. Returns the number kept
/// (0 when the affinity could not be set).
int pin_cpus(int count);

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;       ///< index into the recorder's spans, -1 = root
  int instance = 0;      ///< workload instance the span worked on
};

/// In-memory span tree. A disabled recorder ignores every call, so
/// untraced runs pay one branch per span boundary.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] double now() const { return at(Clock::now()); }
  /// Recorder time of a clock reading.
  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }

  /// Open a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(std::string name, int instance);
  void close(int id);
  /// Record an already-measured interval under `parent`.
  int add(std::string name, double start_s, double end_s, int parent,
          int instance);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Duration minus the part of it covered by direct children.
  [[nodiscard]] double self_time(int id) const;
  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const;

  /// One JSON object per span (name, start, end, parent, instance, self).
  void write_jsonl(std::ostream& out) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a disabled recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int instance = 0)
      : rec_(rec), id_(rec.open(std::move(name), instance)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

/// The benchmark's own telemetry sink: counts events by message kind and
/// timestamps the first event of every phase change, so a driver span can
/// be split into its EOPT phases without touching the driver.
class LayerSink final : public emst::sim::TraceSink {
 public:
  void on_event(const emst::sim::TelemetryEvent& event) override;

  /// Add another sink's per-kind transmission counts to this one.
  void absorb(const LayerSink& other);

  struct PhaseMark {
    emst::sim::PhaseTag phase;
    Clock::time_point at;
  };
  [[nodiscard]] const std::vector<PhaseMark>& phase_marks() const noexcept {
    return marks_;
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  /// Charged transmissions (unicast or broadcast) of one message kind.
  [[nodiscard]] std::uint64_t sent(emst::sim::MsgKind kind) const {
    return sent_[static_cast<std::size_t>(kind)];
  }

 private:
  std::uint64_t events_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(emst::sim::MsgKind::kCount)>
      sent_{};
  bool have_phase_ = false;
  emst::sim::PhaseTag phase_ = emst::sim::PhaseTag::kRun;
  std::vector<PhaseMark> marks_;
};

/// Forwards every event to two sinks.
class TeeSink final : public emst::sim::TraceSink {
 public:
  TeeSink(emst::sim::TraceSink& a, emst::sim::TraceSink& b) : a_(a), b_(b) {}
  void on_event(const emst::sim::TelemetryEvent& event) override {
    a_.on_event(event);
    b_.on_event(event);
  }

 private:
  emst::sim::TraceSink& a_;
  emst::sim::TraceSink& b_;
};

/// A stream buffer that counts and discards what is written to it: the
/// JSONL sink's formatting cost without the disk.
class CountingBuf final : public std::streambuf {
 public:
  CountingBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }
  [[nodiscard]] std::uint64_t bytes() const {
    return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type ch) override;

 private:
  std::array<char, 4096> buf_{};
  std::uint64_t flushed_ = 0;
};

}  // namespace perfbench
