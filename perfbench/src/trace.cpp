#include "trace.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "emst/support/stats.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return emst::support::quantile_sorted(values, q);
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

int pin_cpus(int count) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int kept = 0;
  for (int c = 0; c < CPU_SETSIZE && kept < count; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &chosen);
      ++kept;
    }
  }
  if (kept == 0) return 0;
  return sched_setaffinity(0, sizeof chosen, &chosen) == 0 ? kept : 0;
}

int SpanRecorder::open(std::string name, int instance) {
  if (!enabled_) return -1;
  const double t = now();
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{std::move(name), t, t, parent, instance});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now();
  // Spans close in LIFO order; tolerate a stray close by unwinding to it.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

int SpanRecorder::add(std::string name, double start_s, double end_s,
                      int parent, int instance) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), start_s, end_s, parent, instance});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::self_time(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_)
    if (c.parent == id)
      kids.emplace_back(std::max(c.start_s, s.start_s),
                        std::min(c.end_s, s.end_s));
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = s.start_s;
  for (const auto& [a, b] : kids) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (s.end_s - s.start_s) - covered;
}

double SpanRecorder::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.end_s - s.start_s;
  return sum;
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"span\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"instance\":%d,"
                  "\"self_s\":%.9f}\n",
                  i, s.name.c_str(), s.start_s, s.end_s, s.parent, s.instance,
                  self_time(static_cast<int>(i)));
    out << line;
  }
}

void LayerSink::on_event(const emst::sim::TelemetryEvent& event) {
  ++events_;
  if (event.type == emst::sim::EventType::kUnicast ||
      event.type == emst::sim::EventType::kBroadcast)
    ++sent_[static_cast<std::size_t>(event.kind)];
  if (!have_phase_ || event.phase != phase_) {
    have_phase_ = true;
    phase_ = event.phase;
    marks_.push_back(PhaseMark{event.phase, Clock::now()});
  }
}

void LayerSink::absorb(const LayerSink& other) {
  for (std::size_t k = 0; k < sent_.size(); ++k) sent_[k] += other.sent_[k];
}

CountingBuf::int_type CountingBuf::overflow(int_type ch) {
  flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
  setp(buf_.data(), buf_.data() + buf_.size());
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

}  // namespace perfbench
