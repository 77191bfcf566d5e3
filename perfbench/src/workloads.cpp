#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>

#include "emst/geometry/sampling.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/tree_utils.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/nnt/rank.hpp"
#include "emst/proto/connt_wire.hpp"
#include "emst/proto/ghs_wire.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/run.hpp"
#include "emst/serve/client.hpp"
#include "emst/serve/server.hpp"
#include "emst/serve/session.hpp"
#include "emst/sim/actor.hpp"
#include "emst/sim/distributed_network.hpp"
#include "emst/sim/implicit_topology.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/topology.hpp"
#include "emst/support/rng.hpp"

namespace perfbench {
namespace {

using namespace emst;
using sim::MsgKind;

// Workload sizes (README.md, "Workloads"); quick mode shrinks every one.
struct Sizes {
  std::size_t paper_csr;
  std::size_t implicit_lean;
  std::size_t ranks;
  std::size_t serve_nodes;
  std::size_t serve_min_commits;  ///< p99 needs >= 1000 samples
  std::size_t dist_rounds;        ///< rounds of the rank-exchange pump
};
Sizes sizes(bool quick) {
  if (quick) return {2000, 3000, 1500, 300, 60, 20};
  return {50000, 100000, 20000, 4000, 1000, 200};
}

constexpr double kRadiusFactor = 1.6;
// Set-up runs at least kSetupRepeats times and, while it is cheap, until
// kSetupBudgetS seconds are spent; its median is reported.
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kSetupMax = 25;
constexpr double kSetupBudgetS = 1.0;
bool more_setups(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double t : samples) total += t;
  return samples.size() < kSetupRepeats ||
         (total < kSetupBudgetS && samples.size() < kSetupMax);
}
constexpr std::size_t kMinPasses = 2;  // repeats feed the determinism check
constexpr std::size_t kMaxPasses = 64;
constexpr std::size_t kParentSample = 64;
constexpr std::size_t kProbeNodes = 64;
constexpr int kProbeRadii = 8;  // nodes_within at r = sqrt(2^i / n)
constexpr std::size_t kScheduleSize = 1 << 16;
constexpr std::size_t kCodecCap = 2'000'000;
constexpr int kBatchOps = 4;
constexpr std::size_t kServeSessions = 6;

/// Derived seed for one purpose of one run, so inputs depend only on --seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  return support::Rng::stream_seed(seed, purpose);
}
enum Purpose : std::uint64_t {
  kPointsSeed,
  kBatchSeed,
  kProbeSeed,
  kCodecSeed,
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_tree(const std::vector<graph::Edge>& a,
               const std::vector<graph::Edge>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const graph::Edge x = a[i].canonical();
    const graph::Edge y = b[i].canonical();
    if (x.u != y.u || x.v != y.v || !same_bits(x.w, y.w)) return false;
  }
  return true;
}

/// Tree, energy bits, messages and rounds all equal.
bool same_outcome(const RunResult& a, const RunResult& b) {
  return same_tree(a.tree, b.tree) &&
         same_bits(a.totals.energy, b.totals.energy) &&
         a.totals.messages() == b.totals.messages() &&
         a.totals.rounds == b.totals.rounds;
}

/// Damage a tree so that verification must reject it.
void corrupt_tree(std::vector<graph::Edge>& tree, std::size_t n) {
  if (tree.empty()) return;
  graph::Edge& e = tree.back();
  e.v = static_cast<graph::NodeId>((e.v + 1) % n);
  if (e.v == e.u) e.v = static_cast<graph::NodeId>((e.v + 1) % n);
}

// ------------------------------------------------------------- drivers

struct Step {
  const char* metric;  ///< per-driver metric name, e.g. "ghs_s"
  const char* span;    ///< span name, e.g. "driver.ghs"
  Driver driver;
  std::size_t ranks = 0;
  bool jsonl = false;  ///< attach a JsonlTraceSink into a counting stream
};

struct DriverPlan {
  std::size_t n = 0;
  std::vector<Step> steps;
};

struct StepRun {
  RunResult result;
  double wall_s = 0.0;
  std::uint64_t jsonl_bytes = 0;
};

/// One driver run through the facade, timed from topology in hand to tree
/// returned. `sink` (traced runs) sees every telemetry event.
template <typename Topo>
StepRun run_step(const Topo& topo, const Step& step, sim::TraceSink* sink) {
  RunConfig cfg = config_for(step.driver);
  cfg.ranks = step.ranks;
  CountingBuf buf;
  std::ostream bytes_out(&buf);
  sim::JsonlTraceSink jsonl(bytes_out);
  std::optional<TeeSink> tee;
  sim::Telemetry telemetry;
  if (step.jsonl && sink != nullptr) {
    tee.emplace(*sink, jsonl);
    telemetry.set_sink(&*tee);
  } else if (step.jsonl) {
    telemetry.set_sink(&jsonl);
  } else if (sink != nullptr) {
    telemetry.set_sink(sink);
  }
  if (telemetry.active()) cfg.telemetry = &telemetry;

  StepRun out;
  const auto t0 = Clock::now();
  out.result = emst::run(topo, cfg);
  out.wall_s = seconds_between(t0, Clock::now());
  bytes_out.flush();
  out.jsonl_bytes = buf.bytes();
  return out;
}

/// Per-step bookkeeping across the calls on one instance.
struct StepLog {
  std::optional<RunResult> first;
  std::uint64_t runs = 0;
  std::uint64_t mismatches = 0;  ///< calls that differ from the first

  void record(StepRun&& run) {
    ++runs;
    if (!first) {
      first = std::move(run.result);
    } else if (!same_outcome(*first, run.result)) {
      ++mismatches;
    }
  }
};

template <typename Topo>
struct Instance {
  std::optional<Topo> topo;
  double radius = 0.0;
};

/// Set-up samples: points generated + topology built, per build.
struct SetupLog {
  std::vector<double> setup;
  std::vector<double> points_s;
  std::vector<double> build_s;

  void report(Result& out) const {
    out.set("setup_s", median(setup), setup.size());
    out.set("geometry.points_s", median(points_s), points_s.size());
    out.set("topology.build_s", median(build_s), build_s.size());
  }
};

/// Build instance `index` of a run: its points come from a sub-seed of
/// --seed, so every pass of a run meets a different point set.
template <typename Topo>
void build_instance(Instance<Topo>& inst, std::size_t n, std::uint64_t seed,
                    std::uint64_t index, SetupLog& log, Result& out) {
  inst.topo.reset();
  inst.radius = rgg::connectivity_radius(n, kRadiusFactor);
  ScopedSpan span(out.spans, "setup", static_cast<int>(index));
  const auto t0 = Clock::now();
  support::Rng rng(sub_seed(sub_seed(seed, kPointsSeed), index));
  std::vector<geometry::Point2> points;
  {
    ScopedSpan s(out.spans, "geometry.points", static_cast<int>(index));
    points = geometry::uniform_points(n, rng);
  }
  const auto t1 = Clock::now();
  {
    ScopedSpan s(out.spans, "topology.build", static_cast<int>(index));
    inst.topo.emplace(std::move(points), inst.radius);
  }
  const auto t2 = Clock::now();
  log.setup.push_back(seconds_between(t0, t2));
  log.points_s.push_back(seconds_between(t0, t1));
  log.build_s.push_back(seconds_between(t1, t2));
}

/// The reference checks (README.md, "Correctness"): exact drivers equal
/// kruskal_msf, Co-NNT is a spanning tree whose sampled parents match the
/// brute-force nearest higher-ranked node, repeats repeat exactly.
template <typename Topo>
void verify_steps(const Topo& topo, double radius, const DriverPlan& plan,
                  std::vector<StepLog>& logs, const Options& opts,
                  Result& out) {
  ScopedSpan span(out.spans, "verify");
  const auto t0 = Clock::now();
  const std::size_t n = topo.node_count();
  const auto& points = topo.points();
  std::vector<graph::Edge> edges;
  if constexpr (std::is_same_v<Topo, sim::Topology>) {
    edges = topo.graph().edges();
  } else {
    edges = rgg::geometric_edges_unsorted(points, radius);
  }
  const std::vector<graph::Edge> reference =
      graph::kruskal_msf(n, std::move(edges));

  bool corrupted = !opts.corrupt;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    StepLog& log = logs[i];
    if (!log.first) continue;
    std::vector<graph::Edge>& tree = log.first->tree;
    const Driver d = plan.steps[i].driver;
    const bool approx = d == Driver::kCoNnt || d == Driver::kCoNntAxis;
    if (!corrupted && !approx) {
      corrupt_tree(tree, n);
      corrupted = true;
    }
    bool ok = true;
    if (!approx) {
      ok = same_tree(tree, reference);
    } else {
      ok = graph::is_spanning_tree(n, tree);
      std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
      pairs.reserve(tree.size());
      for (const graph::Edge& e : tree)
        pairs.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
      std::sort(pairs.begin(), pairs.end());
      support::Rng rng(sub_seed(opts.seed, kProbeSeed));
      for (std::size_t k = 0; ok && k < kParentSample; ++k) {
        const auto u = static_cast<graph::NodeId>(rng.uniform_int(n));
        const graph::NodeId p =
            nnt::brute_force_parent(nnt::RankScheme::kDiagonal, points, u);
        if (p == graph::kNoNode) continue;
        ok = std::binary_search(pairs.begin(), pairs.end(),
                                std::make_pair(std::min(u, p), std::max(u, p)));
      }
    }
    const std::string name = plan.steps[i].metric;
    // The repeats equal the first run, so they share its verdict.
    out.check(ok, name + ": tree fails the reference check",
              log.runs - log.mismatches);
    if (log.mismatches > 0)
      out.check(false, name + ": repeat differs from the first run",
                log.mismatches);
  }
  out.values["verify_s"].value += seconds_between(t0, Clock::now());
}

// -- layer probes (traced runs) ---------------------------------------------

template <typename Topo>
void probe_topology(const Topo& topo, std::uint64_t seed, Result& out) {
  const std::size_t n = topo.node_count();
  std::size_t degree_sum = 0;
  {
    ScopedSpan span(out.spans, "topology.neighbors_sweep");
    const auto t0 = Clock::now();
    for (std::size_t u = 0; u < n; ++u)
      degree_sum += topo.neighbors(static_cast<sim::NodeId>(u)).size();
    out.set("topology.neighbors_sweep_s", seconds_between(t0, Clock::now()));
  }
  out.set("topology.degree_mean",
          static_cast<double>(degree_sum) / static_cast<double>(n));
  out.set("topology.edges", static_cast<double>(topo.edge_count()));

  support::Rng rng(sub_seed(seed, kProbeSeed));
  std::vector<sim::NodeId> sample(kProbeNodes);
  for (auto& u : sample) u = static_cast<sim::NodeId>(rng.uniform_int(n));
  ScopedSpan span(out.spans, "topology.nodes_within");
  std::size_t found = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kProbeRadii; ++i) {
    const double r =
        std::sqrt(static_cast<double>(1u << i) / static_cast<double>(n));
    for (const sim::NodeId u : sample) found += topo.nodes_within(u, r).size();
  }
  const double calls = static_cast<double>(kProbeNodes * kProbeRadii);
  out.set("topology.nodes_within_us",
          seconds_between(t0, Clock::now()) * 1e6 / calls,
          kProbeNodes * kProbeRadii);
  out.check(found > 0, "nodes_within found nothing");
}

template <typename Topo>
std::vector<std::pair<sim::NodeId, sim::NodeId>> link_schedule(
    const Topo& topo, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::pair<sim::NodeId, sim::NodeId>> sched;
  sched.reserve(kScheduleSize);
  const std::size_t n = topo.node_count();
  while (sched.size() < kScheduleSize) {
    const auto u = static_cast<sim::NodeId>(rng.uniform_int(n));
    const auto nbs = topo.neighbors(u);
    if (nbs.empty()) continue;
    sched.emplace_back(u, nbs[rng.uniform_int(nbs.size())].id);
  }
  return sched;
}

/// Calendar drain with no handlers: `messages` unicasts over real links,
/// `per_round` per round, through sim::Network. Returns ns per message.
double pump_network(const sim::Topology& topo, std::uint64_t messages,
                    std::uint64_t per_round, std::uint64_t seed, Result& out) {
  const auto sched = link_schedule(topo, seed);
  ScopedSpan span(out.spans, "network.pump");
  sim::Network<std::uint64_t> net(topo);
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  const auto t0 = Clock::now();
  while (sent < messages || net.pending()) {
    const std::uint64_t stop = std::min(messages, sent + per_round);
    for (; sent < stop; ++sent) {
      const auto& [u, v] = sched[sent % kScheduleSize];
      net.unicast(u, v, sent);
    }
    delivered += net.collect_round().size();
  }
  const double wall = seconds_between(t0, Clock::now());
  out.check(delivered == messages, "network pump lost messages");
  return wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(messages, 1));
}

/// A node actor whose handlers only count: the rank pump's barrier cost
/// with no algorithmic work.
struct PumpActor {
  std::uint64_t count = 0;

  void on_round_start(std::uint64_t /*round*/) {}
  template <typename Env>
  void on_message(const sim::Delivery<std::uint64_t>& /*d*/, Env& /*env*/) {
    ++count;
  }
  template <typename LocalPred, typename Env, typename Emit>
  void step(std::uint8_t /*kind*/, std::uint64_t /*param*/,
            std::span<const sim::NodeId> /*list*/,
            const sim::FaultInjector& /*faults*/, bool /*faulty*/,
            LocalPred&& /*is_local*/, Env& /*env*/, Emit&& /*emit*/) {}
  void encode_node(sim::NodeId /*u*/, proto::BitWriter& /*w*/) const {}
  void decode_node(sim::NodeId /*u*/, proto::BitReader& /*r*/) {}
  [[nodiscard]] std::uint64_t invocations() const { return count; }
};

struct PumpSink {
  void on_send(std::uint8_t /*dtag*/, double /*reach*/) {}
  void on_step_node(sim::NodeId /*u*/, std::uint8_t /*flag*/) {}
  void on_note(sim::NodeId /*u*/, std::uint32_t /*a*/, std::uint64_t /*b*/) {}
};

/// Rank exchange: `rounds` barrier round trips of a ranks=2 actor pump
/// carrying `per_round` messages each.
void pump_ranks(const sim::Topology& topo, std::uint64_t rounds,
                std::uint64_t per_round, std::uint64_t seed, Result& out) {
  const auto sched = link_schedule(topo, seed);
  ScopedSpan span(out.spans, "dist.pump");
  sim::DistributedNetwork<std::uint64_t> net(topo, {}, false, {}, {}, nullptr,
                                             2);
  PumpActor actor;
  net.install_actor(actor, /*faulty=*/false);
  PumpSink sink;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t barriers = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < rounds || net.pending(); ++r) {
    if (r < rounds) {
      for (std::uint64_t k = 0; k < per_round; ++k, ++sent) {
        const auto& [u, v] = sched[sent % kScheduleSize];
        net.unicast(u, v, sent);
      }
    }
    delivered += net.actor_collect_round(sink).batch;
    ++barriers;
  }
  const double wall = seconds_between(t0, Clock::now());
  out.check(delivered == sent && net.actor_harvest(actor) == sent,
            "rank pump lost messages or ran handlers outside the ranks");
  out.set("dist.round_us", wall * 1e6 / static_cast<double>(barriers),
          barriers);
  out.set("dist.wire_bytes_per_msg",
          static_cast<double>(net.bytes_sent() + net.bytes_received()) /
              static_cast<double>(std::max<std::uint64_t>(sent, 1)));
}

/// Codec round trips over a per-kind message mix, with the instance's
/// WireContext. Returns false when a decoded message differs.
template <typename Msg>
bool time_codec(const std::vector<Msg>& msgs, const proto::WireContext& ctx,
                double& encode_s, double& decode_s) {
  constexpr std::size_t kBatch = 4096;
  std::vector<proto::BitWriter> writers;
  std::vector<Msg> decoded;
  bool ok = true;
  for (std::size_t lo = 0; lo < msgs.size(); lo += kBatch) {
    const std::size_t hi = std::min(msgs.size(), lo + kBatch);
    writers.assign(hi - lo, proto::BitWriter{});
    decoded.clear();
    const auto t0 = Clock::now();
    for (std::size_t i = lo; i < hi; ++i)
      proto::encode(msgs[i], writers[i - lo], ctx);
    const auto t1 = Clock::now();
    for (std::size_t i = lo; i < hi; ++i) {
      proto::BitReader r(writers[i - lo].bytes());
      if constexpr (std::is_same_v<Msg, proto::GhsMsg>) {
        decoded.push_back(proto::decode_ghs(r, ctx));
      } else {
        decoded.push_back(proto::decode_connt(r, ctx));
      }
    }
    const auto t2 = Clock::now();
    encode_s += seconds_between(t0, t1);
    decode_s += seconds_between(t1, t2);
    ok = ok && std::equal(decoded.begin(), decoded.end(), msgs.begin() + lo);
  }
  return ok;
}

void probe_codec(const sim::Topology& topo, const LayerSink& mix,
                 std::uint64_t seed, Result& out) {
  const proto::WireContext ctx =
      proto::WireContext::for_topology(topo.node_count(), topo.edge_count());
  const std::array ghs_kinds{MsgKind::kConnect, MsgKind::kInitiate,
                             MsgKind::kTest,    MsgKind::kAccept,
                             MsgKind::kReject,  MsgKind::kReport,
                             MsgKind::kChangeRoot, MsgKind::kAnnounce};
  const std::array connt_kinds{MsgKind::kRequest, MsgKind::kReply,
                               MsgKind::kConnection};
  std::uint64_t total = 0;
  for (const MsgKind k : ghs_kinds) total += mix.sent(k);
  for (const MsgKind k : connt_kinds) total += mix.sent(k);
  if (total == 0) return;
  const double scale =
      std::min(1.0, static_cast<double>(kCodecCap) / static_cast<double>(total));
  auto count = [&](MsgKind k) {
    return static_cast<std::size_t>(static_cast<double>(mix.sent(k)) * scale);
  };

  support::Rng rng(sub_seed(seed, kCodecSeed));
  auto field = [&](std::uint32_t bits) {
    return static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{1} << bits));
  };
  std::vector<proto::GhsMsg> ghs;
  for (const MsgKind k : ghs_kinds) {
    for (std::size_t i = count(k); i > 0; --i) {
      switch (k) {
        case MsgKind::kConnect:
          ghs.emplace_back(proto::GhsConnect{field(ctx.level_bits)});
          break;
        case MsgKind::kInitiate:
          ghs.emplace_back(proto::GhsInitiate{
              field(ctx.level_bits), field(ctx.frag_bits),
              i % 2 ? proto::GhsNodeState::kFind : proto::GhsNodeState::kFound});
          break;
        case MsgKind::kTest:
          ghs.emplace_back(
              proto::GhsTest{field(ctx.level_bits), field(ctx.frag_bits)});
          break;
        case MsgKind::kAccept: ghs.emplace_back(proto::GhsAccept{}); break;
        case MsgKind::kReject: ghs.emplace_back(proto::GhsReject{}); break;
        case MsgKind::kReport:
          ghs.emplace_back(proto::GhsReport{
              i % 8 == 0 ? proto::kInfEdge : field(ctx.edge_bits)});
          break;
        case MsgKind::kChangeRoot:
          ghs.emplace_back(proto::GhsChangeRoot{});
          break;
        default:
          ghs.emplace_back(proto::GhsAnnounce{field(ctx.frag_bits)});
          break;
      }
    }
  }
  std::vector<proto::ConntMsg> connt;
  for (const MsgKind k : connt_kinds) {
    for (std::size_t i = count(k); i > 0; --i) {
      if (k == MsgKind::kRequest) {
        connt.emplace_back(
            proto::ConntRequest{field(ctx.coord_bits), field(ctx.coord_bits)});
      } else if (k == MsgKind::kReply) {
        connt.emplace_back(
            proto::ConntReply{field(ctx.coord_bits), field(ctx.coord_bits)});
      } else {
        connt.emplace_back(proto::ConntConnect{});
      }
    }
  }
  // Interleave kinds as a run would, rather than timing one kind at a time.
  std::shuffle(ghs.begin(), ghs.end(), rng);
  std::shuffle(connt.begin(), connt.end(), rng);

  double encode_s = 0.0;
  double decode_s = 0.0;
  {
    ScopedSpan span(out.spans, "proto.codec");
    const bool ghs_ok = time_codec(ghs, ctx, encode_s, decode_s);
    const bool connt_ok = time_codec(connt, ctx, encode_s, decode_s);
    out.check(ghs_ok && connt_ok, "codec round trip changed a message");
  }
  const double msgs = static_cast<double>(ghs.size() + connt.size());
  if (msgs > 0) {
    out.set("proto.encode_ns", encode_s * 1e9 / msgs, ghs.size() + connt.size());
    out.set("proto.decode_ns", decode_s * 1e9 / msgs, ghs.size() + connt.size());
  }
}

/// Spans for the EOPT phases, each opened at the first sink event of its
/// PhaseTag and closed at the next phase's first event or the run's end.
void add_phase_spans(const LayerSink& sink, int driver_span, Result& out) {
  if (driver_span < 0) return;
  const Span& parent =
      out.spans.spans()[static_cast<std::size_t>(driver_span)];
  const double parent_end = parent.end_s;
  const auto& marks = sink.phase_marks();
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const double start = out.spans.at(marks[i].at);
    const double end =
        i + 1 < marks.size() ? out.spans.at(marks[i + 1].at) : parent_end;
    const char* name = "eopt.run";
    switch (marks[i].phase) {
      case sim::PhaseTag::kStep1: name = "eopt.step1"; break;
      case sim::PhaseTag::kCensus: name = "eopt.census"; break;
      case sim::PhaseTag::kStep2: name = "eopt.step2"; break;
      default: break;
    }
    out.spans.add(name, start, end, driver_span, 0);
  }
}

const Step* find_step(const DriverPlan& plan, Driver d, bool jsonl) {
  for (const Step& s : plan.steps)
    if (s.driver == d && s.jsonl == jsonl) return &s;
  return nullptr;
}

std::size_t index_of(const DriverPlan& plan, const Step* step) {
  return static_cast<std::size_t>(step - plan.steps.data());
}

template <typename Topo>
void run_drivers(const DriverPlan& plan, const Options& opts, Result& out) {
  SetupLog setups;
  Instance<Topo> inst;

  if (!opts.traced) {
    // Each pass meets a fresh instance, so one run averages over several
    // point sets: classic GHS's round count alone varies by a fifth between
    // instances of one size, and rounds set the ranked engine's barrier bill.
    std::vector<double> passes;
    std::vector<std::vector<double>> walls(plan.steps.size());
    const auto loop_start = Clock::now();
    for (std::uint64_t k = 0; passes.size() < kMaxPasses; ++k) {
      const auto iter_start = Clock::now();
      build_instance(inst, plan.n, opts.seed, k, setups, out);
      std::vector<StepLog> pass_logs(plan.steps.size());
      double pass = 0.0;
      for (std::size_t i = 0; i < plan.steps.size(); ++i) {
        StepRun run = run_step(*inst.topo, plan.steps[i], nullptr);
        pass += run.wall_s;
        walls[i].push_back(run.wall_s);
        pass_logs[i].record(std::move(run));
      }
      passes.push_back(pass);
      // Read before any verification: the Kruskal reference holds every
      // edge and is not part of what a run costs.
      if (k == 0) out.set("peak_rss_mb", peak_rss_mib());
      verify_steps(*inst.topo, inst.radius, plan, pass_logs, opts, out);
      const auto now = Clock::now();
      if (passes.size() >= kMinPasses &&
          seconds_between(loop_start, now) +
                  seconds_between(iter_start, now) >
              opts.seconds)
        break;
    }
    inst.topo.reset();
    // Cheap set-ups are repeated until the median is steady.
    while (more_setups(setups.setup))
      build_instance(inst, plan.n, opts.seed, 0, setups, out);
    setups.report(out);
    out.set("tree_s", median(passes), passes.size());
    out.set("tree_tail_s", *std::max_element(passes.begin(), passes.end()),
            passes.size());
    for (std::size_t i = 0; i < plan.steps.size(); ++i)
      out.set(plan.steps[i].metric, median(walls[i]), walls[i].size());
    return;
  }

  do {
    build_instance(inst, plan.n, opts.seed, 0, setups, out);
  } while (more_setups(setups.setup));
  setups.report(out);
  const Topo& topo = *inst.topo;

  // Traced run: each driver is called untraced, with the benchmark's sink
  // attached, and untraced again; the untraced mean is the overhead base
  // and the per-driver time. Then the probes run on the same instance.
  std::vector<StepLog> logs(plan.steps.size());
  double untraced = 0.0;
  double traced = 0.0;
  std::vector<double> plain(plan.steps.size());  // mean untraced wall
  LayerSink mix;  // GHS + Co-NNT message mix for the codec probe
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const Step& step = plan.steps[i];
    const std::string untraced_span = std::string(step.span) + ".untraced";
    StepRun before;
    {
      ScopedSpan span(out.spans, untraced_span);
      before = run_step(topo, step, nullptr);
    }
    LayerSink sink;
    StepRun run;
    int span_id = -1;
    {
      ScopedSpan span(out.spans, step.span);
      span_id = span.id();
      run = run_step(topo, step, &sink);
    }
    StepRun after;
    {
      ScopedSpan span(out.spans, untraced_span);
      after = run_step(topo, step, nullptr);
    }
    plain[i] = (before.wall_s + after.wall_s) / 2;
    untraced += plain[i];
    traced += run.wall_s;
    out.set(step.metric, plain[i], 2);
    if (step.jsonl)
      out.set("telemetry.jsonl_bytes", static_cast<double>(before.jsonl_bytes));
    logs[i].record(std::move(before));
    logs[i].record(std::move(after));
    const sim::Accounting& t = run.result.totals;
    switch (step.driver) {
      case Driver::kClassicGhs:
        out.set("ghs.messages", static_cast<double>(t.messages()));
        out.set("ghs.rounds", static_cast<double>(t.rounds));
        out.set("ghs.handler_invocations",
                static_cast<double>(run.result.handler_invocations));
        out.set("ghs.rank_handler_invocations",
                static_cast<double>(run.result.rank_handler_invocations));
        out.set("ghs.reject_per_test",
                static_cast<double>(sink.sent(MsgKind::kReject)) /
                    static_cast<double>(
                        std::max<std::uint64_t>(sink.sent(MsgKind::kTest), 1)));
        if (step.ranks > 0)
          out.check(run.result.handler_invocations == 0 &&
                        run.result.rank_handler_invocations > 0,
                    "ranked GHS handlers did not run in the ranks");
        break;
      case Driver::kEopt:
        if (step.jsonl) break;
        add_phase_spans(sink, span_id, out);
        out.set("eopt.messages", static_cast<double>(t.messages()));
        out.set("eopt.rounds", static_cast<double>(t.rounds));
        out.set("eopt.phases", static_cast<double>(run.result.phases));
        out.set("telemetry.events", static_cast<double>(sink.events()));
        if (span_id >= 0) {
          out.set("eopt.step1_s", out.spans.total("eopt.step1"));
          out.set("eopt.census_s", out.spans.total("eopt.census"));
          out.set("eopt.step2_s", out.spans.total("eopt.step2"));
          out.set("eopt.unattributed_s", out.spans.self_time(span_id));
        }
        break;
      case Driver::kCoNnt:
        out.set("connt.messages", static_cast<double>(t.messages()));
        out.set("connt.probe_rounds", static_cast<double>(run.result.phases));
        out.set("connt.replies_per_request",
                static_cast<double>(sink.sent(MsgKind::kReply)) /
                    static_cast<double>(std::max<std::uint64_t>(
                        sink.sent(MsgKind::kRequest), 1)));
        break;
      default: break;
    }
    if (step.driver == Driver::kClassicGhs || step.driver == Driver::kCoNnt)
      mix.absorb(sink);
    logs[i].record(std::move(run));
  }
  out.set("trace.overhead", traced / untraced);
  const Step* eopt = find_step(plan, Driver::kEopt, false);
  const Step* eopt_jsonl = find_step(plan, Driver::kEopt, true);
  if (eopt != nullptr && eopt_jsonl != nullptr) {
    out.set("telemetry.jsonl_ns_per_event",
            (plain[index_of(plan, eopt_jsonl)] - plain[index_of(plan, eopt)]) *
                1e9 / out.values["telemetry.events"].value);
  }

  probe_topology(topo, opts.seed, out);
  if constexpr (std::is_same_v<Topo, sim::Topology>) {
    if (const Step* ghs = find_step(plan, Driver::kClassicGhs, false)) {
      const std::size_t gi = index_of(plan, ghs);
      const sim::Accounting& g = logs[gi].first->totals;
      const std::uint64_t per_round =
          std::max<std::uint64_t>(g.messages() / std::max<std::uint64_t>(
                                                     g.rounds, 1),
                                  1);
      if (ghs->ranks == 0) {
        const double ns = pump_network(topo, g.messages(), per_round,
                                       sub_seed(opts.seed, kProbeSeed), out);
        out.set("network.pump_ns_per_msg", ns);
        out.set("ghs.engine_share",
                ns * 1e-9 * static_cast<double>(g.messages()) / plain[gi]);
      } else {
        pump_ranks(topo, sizes(opts.quick).dist_rounds, per_round,
                   sub_seed(opts.seed, kProbeSeed), out);
      }
    }
    probe_codec(topo, mix, opts.seed, out);
    if (plan.steps.front().ranks > 0) {
      // Bitwise echo and rank tax: every ranked run against a serial run on
      // the same instance; the sharded engine at two threads alongside.
      for (std::size_t i = 0; i < plan.steps.size(); ++i) {
        const Step& step = plan.steps[i];
        const bool ghs = step.driver == Driver::kClassicGhs;
        RunResult serial;
        double serial_s = 0.0;
        {
          ScopedSpan span(out.spans, ghs ? "driver.ghs.serial"
                                         : "driver.connt.serial");
          const auto t0 = Clock::now();
          if (ghs) {
            serial = emst::run(topo, config_for(Driver::kClassicGhs));
          } else {
            nnt::CoNntResult r = nnt::run_connt_actor(topo, {});
            serial.tree = std::move(r.tree);
            serial.totals = r.totals;
          }
          serial_s = seconds_between(t0, Clock::now());
        }
        const RunResult& ranked = *logs[i].first;
        const bool echo = same_tree(serial.tree, ranked.tree) &&
                          same_bits(serial.totals.energy, ranked.totals.energy);
        out.check(echo, std::string(step.metric) +
                            ": ranked run differs from the serial run");
        out.set(ghs ? "ghs.rank_tax" : "connt.rank_tax", plain[i] / serial_s);
        if (ghs) {
          RunConfig cfg = config_for(Driver::kClassicGhs);
          cfg.threads = 2;
          RunResult sharded;
          double sharded_s = 0.0;
          const int cpus = pin_cpus(2);  // the one probe that wants two
          {
            ScopedSpan span(out.spans, "driver.ghs.threads2");
            const auto t0 = Clock::now();
            sharded = emst::run(topo, cfg);
            sharded_s = seconds_between(t0, Clock::now());
          }
          pin_cpus(1);
          out.check(cpus == 2, "ghs: no second CPU for threads=2");
          out.check(same_outcome(serial, sharded),
                    "ghs: threads=2 differs from the serial run");
          out.set("sharded.ghs_speedup", serial_s / sharded_s);
        }
      }
    }
  }
  verify_steps(topo, inst.radius, plan, logs, opts, out);
}

// --------------------------------------------------------------- serve

/// The seeded closed-loop request stream: batch k is the same on every run
/// with the same seed, whoever executes it. Ids are tracked on the caller's
/// side, so every request is valid by construction.
class BatchStream {
 public:
  BatchStream(std::uint64_t seed, std::size_t initial)
      : rng_(sub_seed(seed, kBatchSeed)), live_(initial) {
    for (std::size_t i = 0; i < initial; ++i)
      live_[i] = static_cast<graph::NodeId>(i);
  }

  struct Op {
    enum Kind { kAdd, kRemove, kMove } kind;
    graph::NodeId id = graph::kNoNode;
    geometry::Point2 p{};
  };

  /// Next mutation. Adds return their id through `added`.
  Op next() {
    Op op{static_cast<Op::Kind>(rng_.uniform_int(3))};
    if (live_.size() < 2) op.kind = Op::kAdd;
    if (op.kind != Op::kRemove) op.p = {rng_.uniform(), rng_.uniform()};
    if (op.kind != Op::kAdd) {
      const std::size_t idx = rng_.uniform_int(live_.size());
      op.id = live_[idx];
      if (op.kind == Op::kRemove) {
        live_[idx] = live_.back();
        live_.pop_back();
      }
    }
    return op;
  }
  void added(graph::NodeId id) { live_.push_back(id); }
  [[nodiscard]] std::size_t live() const noexcept { return live_.size(); }

 private:
  support::Rng rng_;
  std::vector<graph::NodeId> live_;
};

std::vector<geometry::Point2> serve_points(std::size_t n, std::uint64_t seed) {
  support::Rng rng(sub_seed(seed, kPointsSeed));
  return geometry::uniform_points(n, rng);
}

/// Session built, daemon listening on loopback, client hello done.
struct Daemon {
  std::optional<serve::Server> server;
  std::thread thread;
  serve::Client client;
  std::uint64_t served = 0;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  bool start(std::vector<geometry::Point2> points, sim::Telemetry* telemetry) {
    serve::SessionConfig cfg;
    cfg.run.driver = Driver::kEopt;
    cfg.run.telemetry = telemetry;
    server.emplace(serve::Session(std::move(points), cfg),
                   serve::ServerConfig{0, 256, -1});
    if (!server->ok()) return false;
    thread = std::thread([this] { served = server->serve(); });
    return client.connect(server->port()) && client.hello().has_value();
  }
  /// Shutdown request + join; true on the daemon's Ack.
  bool stop() {
    if (!thread.joinable()) return true;
    const bool ack = client.shutdown_server();
    if (!ack) {
      // The daemon may be wedged on a dead connection; a fresh client can
      // still deliver the shutdown.
      serve::Client rescue;
      if (rescue.connect(server->port())) (void)rescue.shutdown_server();
    }
    thread.join();
    client.close();
    return ack;
  }
};

struct LoopStats {
  std::vector<double> batch_s;
  std::vector<double> commit_ms;
  std::vector<double> rebuild_commit_ms;
  std::vector<double> mutation_us;
  std::vector<double> query_ms;
  std::uint64_t admitted = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t nodes_touched = 0;
  double wall_s = 0.0;
};

/// The closed loop: one client, each batch = kBatchOps mutations, an
/// explicit Commit, then a QueryTree read. Runs `batches` batches, or until
/// `seconds` pass once `min_batches` are done when `batches` is 0. Appends
/// to `st`, so several sessions pool into one sample.
/// `spans` (the traced loop only) gets one span per batch.
void client_loop(Daemon& d, BatchStream& stream, std::size_t batches,
                 std::size_t min_batches, double seconds, LoopStats& st,
                 SpanRecorder* spans, Result& out) {
  const auto start = Clock::now();
  for (std::size_t b = 0;; ++b) {
    if (batches != 0 ? b >= batches
                     : b >= min_batches &&
                           seconds_between(start, Clock::now()) >= seconds)
      break;
    const int span = spans != nullptr ? spans->open("serve.batch", 0) : -1;
    const auto tb = Clock::now();
    for (int k = 0; k < kBatchOps; ++k) {
      const BatchStream::Op op = stream.next();
      const auto t0 = Clock::now();
      bool ok = false;
      if (op.kind == BatchStream::Op::kAdd) {
        const graph::NodeId id = d.client.add_node(op.p.x, op.p.y);
        ok = id != graph::kNoNode;
        if (ok) stream.added(id);
      } else if (op.kind == BatchStream::Op::kRemove) {
        ok = d.client.remove_node(op.id);
      } else {
        ok = d.client.move_node(op.id, op.p.x, op.p.y);
      }
      st.mutation_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      out.check(ok, "serve: a mutation request was refused");
      st.admitted += ok ? 1 : 0;
    }
    const auto tc = Clock::now();
    const auto report = d.client.commit();
    const double commit_ms = seconds_between(tc, Clock::now()) * 1e3;
    out.check(report.has_value() &&
                  report->admitted == static_cast<std::uint32_t>(kBatchOps),
              "serve: commit failed");
    st.commit_ms.push_back(commit_ms);
    if (report && report->rebuilt) {
      ++st.rebuilds;
      st.rebuild_commit_ms.push_back(commit_ms);
    }
    if (report) st.nodes_touched += report->nodes_touched;
    const auto tq = Clock::now();
    const auto tree = d.client.query_tree();
    st.query_ms.push_back(seconds_between(tq, Clock::now()) * 1e3);
    out.check(tree.has_value() && tree->nodes == stream.live() &&
                  report.has_value() && tree->edges == report->tree_edges,
              "serve: tree query failed or disagrees with the commit");
    st.batch_s.push_back(seconds_between(tb, Clock::now()));
    if (spans != nullptr) spans->close(span);
  }
  st.wall_s += seconds_between(start, Clock::now());
}

/// Shutdown, then the session's tree must equal its Kruskal reference.
void finish_daemon(Daemon& d, const Options& opts, Result& out) {
  out.check(d.stop(), "serve: shutdown was not acknowledged");
  ScopedSpan span(out.spans, "verify");
  const auto t0 = Clock::now();
  std::vector<graph::Edge> tree = d.server->session().tree();
  if (opts.corrupt) corrupt_tree(tree, d.server->session().capacity());
  out.check(same_tree(tree, d.server->session().reference_msf()),
            "serve: final tree differs from reference_msf");
  out.values["verify_s"].value += seconds_between(t0, Clock::now());
}

/// Session built, daemon listening, client hello done: one set-up sample.
bool start_timed(Daemon& d, std::size_t n, std::uint64_t seed,
                 sim::Telemetry* telemetry, std::vector<double>& setup,
                 std::vector<double>& points_s, Result& out) {
  ScopedSpan span(out.spans, "setup");
  const auto t0 = Clock::now();
  std::vector<geometry::Point2> points;
  {
    ScopedSpan s(out.spans, "geometry.points");
    points = serve_points(n, seed);
  }
  points_s.push_back(seconds_between(t0, Clock::now()));
  bool up = false;
  {
    ScopedSpan s(out.spans, "serve.start");
    up = d.start(std::move(points), telemetry);
  }
  setup.push_back(seconds_between(t0, Clock::now()));
  out.check(up, "serve: daemon did not start or hello failed");
  return up;
}

/// In-process Session::commit over the batch stream a served session saw.
void replay_in_process(std::size_t n, std::uint64_t seed, std::size_t batches,
                       const std::vector<graph::Edge>& served_tree,
                       std::vector<double>& commit_ms, Result& out) {
  ScopedSpan span(out.spans, "serve.session_replay");
  serve::SessionConfig cfg;
  cfg.run.driver = Driver::kEopt;
  serve::Session session(serve_points(n, seed), cfg);
  BatchStream replay(seed, n);
  bool ok = true;
  for (std::size_t b = 0; b < batches; ++b) {
    for (int k = 0; k < kBatchOps; ++k) {
      const BatchStream::Op op = replay.next();
      if (op.kind == BatchStream::Op::kAdd) {
        const graph::NodeId id = session.queue_add(op.p);
        ok = ok && id != graph::kNoNode;
        replay.added(id);
      } else if (op.kind == BatchStream::Op::kRemove) {
        ok = session.queue_remove(op.id) && ok;
      } else {
        ok = session.queue_move(op.id, op.p) && ok;
      }
    }
    const auto t0 = Clock::now();
    (void)session.commit();
    commit_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  out.check(ok, "serve: in-process replay refused a mutation");
  out.check(same_tree(session.tree(), served_tree),
            "serve: in-process session differs from the served one");
}

/// kServeSessions independent deployments, one after another, each with its
/// own daemon and closed loop; their batches pool into one sample so that
/// no single deployment's repair profile decides the run.
void run_serve(const Options& opts, Result& out) {
  const Sizes sz = sizes(opts.quick);
  const std::size_t n = sz.serve_nodes;
  std::vector<double> setup;
  std::vector<double> points_s;
  out.set("verify_s", 0.0);
  // Extra set-ups of the first deployment, for a steady set-up median.
  while (setup.size() + kServeSessions < kSetupRepeats || more_setups(setup)) {
    Daemon d;
    if (!start_timed(d, n, sub_seed(opts.seed, 100), nullptr, setup, points_s,
                     out))
      return;
  }

  LoopStats st;
  LoopStats traced_st;
  std::vector<double> session_commit_ms;
  const double share =
      opts.seconds / static_cast<double>(kServeSessions) / (opts.traced ? 3 : 1);
  // Every deployment runs past its first full rebuild, traced or not.
  const auto first_rebuild = static_cast<std::size_t>(
      serve::SessionConfig{}.rebuild_churn_fraction * static_cast<double>(n) /
      kBatchOps);
  const std::size_t min_batches =
      std::max((sz.serve_min_commits + kServeSessions - 1) / kServeSessions,
               first_rebuild + 1);
  for (std::size_t k = 0; k < kServeSessions; ++k) {
    const std::uint64_t seed = sub_seed(opts.seed, 100 + k);
    Daemon d;
    if (!start_timed(d, n, seed, nullptr, setup, points_s, out)) return;
    BatchStream stream(seed, n);
    const std::size_t before = st.batch_s.size();
    client_loop(d, stream, 0, min_batches, share, st, nullptr, out);
    const std::size_t batches = st.batch_s.size() - before;
    if (!opts.traced) {
      finish_daemon(d, opts, out);
      continue;
    }
    finish_daemon(d, opts, out);
    const std::vector<graph::Edge> served = d.server->session().tree();

    // The same batches with the benchmark's sink on the session's rebuilds
    // and a span per batch: the overhead of tracing.
    LayerSink sink;
    sim::Telemetry telemetry(&sink);
    {
      ScopedSpan span(out.spans, "serve.traced_loop", static_cast<int>(k));
      Daemon td;
      BatchStream replay(seed, n);
      std::vector<double> ignored;
      if (!start_timed(td, n, seed, &telemetry, ignored, ignored, out)) return;
      client_loop(td, replay, batches, 0, 0.0, traced_st, &out.spans, out);
      finish_daemon(td, opts, out);
    }
    out.values["telemetry.events"].value += static_cast<double>(sink.events());
    replay_in_process(n, seed, batches, served, session_commit_ms, out);
  }

  out.set("setup_s", median(setup), setup.size());
  out.set("geometry.points_s", median(points_s), points_s.size());
  const std::size_t batches = st.batch_s.size();
  const double commit_p50 = median(st.commit_ms);
  out.set("commit_p50_ms", commit_p50, batches);
  out.set("commit_p99_ms", quantile(st.commit_ms, 0.99), batches);
  out.set("mutations_per_s", static_cast<double>(st.admitted) / st.wall_s,
          st.admitted);
  if (!opts.traced) {
    out.set("tree_s", median(st.batch_s), batches);
    out.set("tree_tail_s", quantile(st.batch_s, 0.99), batches);
    out.set("peak_rss_mb", peak_rss_mib());
    return;
  }

  out.set("trace.overhead", traced_st.wall_s / st.wall_s);
  out.set("serve.mutation_rtt_us", median(st.mutation_us),
          st.mutation_us.size());
  out.set("serve.query_ms", median(st.query_ms), st.query_ms.size());
  out.set("serve.rebuild_commit_ms", median(st.rebuild_commit_ms),
          st.rebuild_commit_ms.size());
  out.set("serve.rebuilds", static_cast<double>(st.rebuilds));
  out.set("serve.incremental_commits",
          static_cast<double>(batches - st.rebuilds));
  out.set("serve.nodes_touched_mean", static_cast<double>(st.nodes_touched) /
                                          static_cast<double>(batches));
  const double session_p50 = median(session_commit_ms);
  out.set("serve.session_commit_p50_ms", session_p50, batches);
  out.set("serve.session_commit_p99_ms", quantile(session_commit_ms, 0.99),
          batches);
  out.set("serve.transport_ms", commit_p50 - session_p50, batches);

  // Topology layer on the first deployment, as a rebuild sees it.
  const double radius = rgg::connectivity_radius(n, kRadiusFactor);
  std::optional<sim::Topology> topo;
  {
    ScopedSpan span(out.spans, "topology.build");
    const auto t0 = Clock::now();
    topo.emplace(serve_points(n, sub_seed(opts.seed, 100)), radius);
    out.set("topology.build_s", seconds_between(t0, Clock::now()));
  }
  probe_topology(*topo, opts.seed, out);
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "paper-csr" || name == "implicit-lean" || name == "ranks" ||
         name == "serve-churn";
}

void run_workload(const Options& opts, Result& out) {
  const Sizes sz = sizes(opts.quick);
  const int root = out.spans.open("workload." + opts.workload, 0);
  if (opts.workload == "paper-csr") {
    run_drivers<sim::Topology>(
        DriverPlan{sz.paper_csr,
                   {{"ghs_s", "driver.ghs", Driver::kClassicGhs},
                    {"eopt_s", "driver.eopt", Driver::kEopt},
                    {"connt_s", "driver.connt", Driver::kCoNnt},
                    {"eopt_trace_s", "driver.eopt_trace", Driver::kEopt, 0,
                     true}}},
        opts, out);
  } else if (opts.workload == "implicit-lean") {
    run_drivers<sim::ImplicitTopology>(
        DriverPlan{sz.implicit_lean,
                   {{"eopt_s", "driver.eopt", Driver::kEopt},
                    {"connt_s", "driver.connt", Driver::kCoNnt}}},
        opts, out);
  } else if (opts.workload == "ranks") {
    run_drivers<sim::Topology>(
        DriverPlan{sz.ranks,
                   {{"ghs_s", "driver.ghs", Driver::kClassicGhs, 2},
                    {"connt_s", "driver.connt", Driver::kCoNnt, 2}}},
        opts, out);
  } else {
    run_serve(opts, out);
  }
  out.spans.close(root);
}

}  // namespace perfbench
