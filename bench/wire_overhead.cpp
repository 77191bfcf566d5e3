// How big are the messages? (paper §III: O(log n)-bit messages)
//
// The paper's energy model assumes every message fits in O(log n) bits —
// node ids, fragment names, levels and coordinates are all logarithmic in
// n. This bench verifies the reproduction honors that budget empirically:
// it runs the wire-measured drivers (classic GHS actor, phase-synchronous
// GHS, Co-NNT actor) over a deployment sweep, records the encoded size of
// every charged frame from the telemetry stream, and checks
//
//   max encoded bits  <=  c * log2(n)      (c = 4, generous constant)
//
// at every n. Mean sizes are reported alongside so growth is visible:
// doubling n should add O(1) bits to the max (one more bit per id/edge
// field), keeping max/log2(n) bounded.
//
// Results go to the console table and the tracked BENCH_wire.json; the
// process exits nonzero if any frame exceeds the bound (CI-enforceable).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/support/cli.hpp"
#include "emst/support/json.hpp"
#include "emst/support/rng.hpp"
#include "emst/support/table.hpp"

namespace {

using namespace emst;

/// Streams the trace into running max/mean of charged frame sizes — no
/// event buffering, so the sweep's memory stays flat.
class BitsProbe final : public sim::TraceSink {
 public:
  void on_event(const sim::TelemetryEvent& event) override {
    if (event.type != sim::EventType::kUnicast &&
        event.type != sim::EventType::kBroadcast)
      return;
    ++frames_;
    sum_ += event.bits;
    if (event.bits > max_) max_ = event.bits;
    if (event.bits == 0) ++unmeasured_;
  }

  [[nodiscard]] std::uint64_t frames() const noexcept { return frames_; }
  [[nodiscard]] std::uint32_t max_bits() const noexcept { return max_; }
  [[nodiscard]] double mean_bits() const noexcept {
    return frames_ == 0 ? 0.0
                        : static_cast<double>(sum_) /
                              static_cast<double>(frames_);
  }
  [[nodiscard]] std::uint64_t unmeasured() const noexcept {
    return unmeasured_;
  }

 private:
  std::uint64_t frames_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t unmeasured_ = 0;
  std::uint32_t max_ = 0;
};

struct AlgoSample {
  std::string algo;
  std::uint64_t frames = 0;
  std::uint32_t max_bits = 0;
  double mean_bits = 0.0;
  std::uint64_t unmeasured = 0;
};

AlgoSample run_algo(const std::string& algo, const sim::Topology& topo) {
  sim::Telemetry telemetry;
  BitsProbe probe;
  telemetry.set_sink(&probe);
  sim::RunConfig cfg;
  cfg.telemetry = &telemetry;
  if (algo == "ghs-cached") {
    ghs::ClassicGhsOptions options;
    options.moe = ghs::MoeStrategy::kCachedConfirm;
    (void)ghs::run_classic_ghs(topo, cfg, options);
  } else if (algo == "sync") {
    (void)ghs::run_sync_ghs(topo, cfg);
  } else {  // connt (actor execution: every frame runs through the codec)
    (void)nnt::run_connt_actor(topo, cfg);
  }
  AlgoSample out;
  out.algo = algo;
  out.frames = probe.frames();
  out.max_bits = probe.max_bits();
  out.mean_bits = probe.mean_bits();
  out.unmeasured = probe.unmeasured();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(
      argc, argv,
      {{"ns", "comma-separated node counts (default 64,128,256,512,1024,2048)"},
       {"seed", "deployment seed (default 2008)"},
       {"c", "bound constant: max_bits <= c*log2(n) (default 4.0)"},
       {"json", "output JSON path (default BENCH_wire.json)"},
       {"quick", "1 = CI-sized sweep (64,256)"}});
  const bool quick = cli.get_int("quick", 0) != 0;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));
  const double c_bound = cli.get_double("c", 4.0);
  const std::string json_path = cli.get("json", "BENCH_wire.json");
  std::vector<std::size_t> ns;
  {
    std::stringstream ss(
        cli.get("ns", quick ? "64,256" : "64,128,256,512,1024,2048"));
    std::string piece;
    while (std::getline(ss, piece, ',')) {
      if (!piece.empty()) ns.push_back(std::stoul(piece));
    }
  }
  const std::vector<std::string> algos = {"ghs-cached", "sync", "connt"};

  std::printf("wire overhead: max/mean encoded frame size vs %.1f*log2(n)\n\n",
              c_bound);
  support::Table table({"n", "edges", "algo", "frames", "max_bits",
                        "mean_bits", "bound", "ok"});

  struct Row {
    std::size_t n = 0;
    std::size_t edges = 0;
    double bound = 0.0;
    std::vector<AlgoSample> samples;
  };
  std::vector<Row> rows;
  bool all_ok = true;

  for (const std::size_t n : ns) {
    support::Rng rng(seed);
    const auto points = geometry::uniform_points(n, rng);
    const sim::Topology topo(points, rgg::connectivity_radius(n, 1.6));
    Row row;
    row.n = n;
    row.edges = topo.graph().edge_count();
    row.bound = c_bound * std::log2(static_cast<double>(n));
    for (const std::string& algo : algos) {
      AlgoSample sample = run_algo(algo, topo);
      const bool ok =
          static_cast<double>(sample.max_bits) <= row.bound &&
          sample.unmeasured == 0 && sample.frames > 0;
      all_ok &= ok;
      table.add_row({static_cast<double>(n), static_cast<double>(row.edges),
                     sample.algo, static_cast<double>(sample.frames),
                     static_cast<double>(sample.max_bits), sample.mean_bits,
                     row.bound, std::string(ok ? "yes" : "NO")});
      row.samples.push_back(std::move(sample));
    }
    rows.push_back(std::move(row));
  }
  table.print(std::cout);

  {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    support::JsonWriter json(os);
    json.begin_object();
    json.key("seed").value(seed);
    json.key("c_bound").value(c_bound);
    json.key("all_within_bound").value(all_ok);
    json.key("sweep").begin_array();
    for (const Row& row : rows) {
      json.begin_object();
      json.key("n").value(static_cast<std::uint64_t>(row.n));
      json.key("edges").value(static_cast<std::uint64_t>(row.edges));
      json.key("bound_bits").value(row.bound);
      json.key("algos").begin_array();
      for (const AlgoSample& s : row.samples) {
        json.begin_object();
        json.key("algo").value(s.algo);
        json.key("frames").value(s.frames);
        json.key("max_bits").value(static_cast<std::uint64_t>(s.max_bits));
        json.key("mean_bits").value(s.mean_bits);
        json.key("within_bound").value(
            static_cast<double>(s.max_bits) <= row.bound && s.unmeasured == 0);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    os << '\n';
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  std::printf("\nreading guide: every frame an algorithm puts on the air is "
              "encoded through the proto codec; max_bits growing by ~O(1) "
              "per doubling of n (one more bit per id/edge field) while the "
              "bound grows by %.1f confirms the paper's O(log n)-bit message "
              "assumption holds in the implementation.\n",
              c_bound);
  if (!all_ok) {
    std::fprintf(stderr, "error: a frame exceeded %.1f*log2(n) bits (or a "
                         "charge went unmeasured)\n",
                 c_bound);
    return 1;
  }
  return 0;
}
