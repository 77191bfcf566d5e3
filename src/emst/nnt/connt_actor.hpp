// Co-NNT as a node actor (docs/DISTRIBUTED.md §2).
//
// The per-node half of the coordinate-based O(1)-energy spanning tree
// (paper §VI): the REQUEST/REPLY message handlers plus the choreographed
// probe / connect / reset steps of each doubling round. The same actor code
// runs serially inside the driver (all in-process engines) and
// rank-resident inside the forked ranks of `sim::DistributedNetwork`; the
// env parameter decides whether an action stages immediately or becomes an
// effect-ledger record.
//
// Receiver-locality: `on_message` touches only delivery.to's state, the
// step methods only the stepped node's — the rank that owns a node can
// execute all of them. Reply selection compares the delivery distance
// doubles bit-for-bit (they ride the wire as raw bit images), so the chosen
// parent and tree edge are placement-independent.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/nnt/rank.hpp"
#include "emst/proto/connt_wire.hpp"
#include "emst/proto/dist_wire.hpp"
#include "emst/proto/wire.hpp"
#include "emst/sim/fault.hpp"
#include "emst/sim/network.hpp"
#include "emst/sim/telemetry.hpp"
#include "emst/support/assert.hpp"

namespace emst::nnt {

/// Per-node doubling schedule shared by the choreographed fast path and the
/// actor execution.
struct ProbePlan {
  std::size_t max_rounds = 0;

  ProbePlan(RankScheme scheme, geometry::Point2 p, double n_est) {
    const double lu = potential_distance(scheme, p);
    const double m_exact = std::log2(std::max(2.0, n_est * lu * lu));
    max_rounds = static_cast<std::size_t>(std::max(1.0, std::ceil(m_exact)));
  }

  [[nodiscard]] static double radius(std::size_t round, double n_est) {
    return std::min(
        std::sqrt(std::pow(2.0, static_cast<double>(round)) / n_est),
        std::sqrt(2.0));
  }
};

/// Outcome flags of the choreographed steps (the `flag` byte of an
/// ACTOR_STEPPED group): the parent keys its unresolved/searching model
/// transitions on them.
inline constexpr std::uint8_t kConntStepSearching = 0;   ///< probe sent
inline constexpr std::uint8_t kConntStepConnected = 1;   ///< connect sent
inline constexpr std::uint8_t kConntStepUnresolved = 0;  ///< no reply heard
inline constexpr std::uint8_t kConntStepTerminated = 2;  ///< schedule done

/// Reads the node positions and nothing else of the topology (rank order and
/// reply coordinates); the engine resolves who hears a probe.
class ConntActor {
 public:
  using Msg = proto::ConntMsg;
  using Delivery = sim::Delivery<Msg>;

  ConntActor(std::span<const geometry::Point2> points, RankScheme scheme,
             double n_est, const proto::WireContext& ctx)
      : points_(points),
        scheme_(scheme),
        n_est_(n_est),
        ctx_(ctx),
        nodes_(points.size()) {}

  void on_round_start(std::uint64_t /*round*/) {}

  /// REQUEST → reply if higher-ranked; REPLY → fold into the requester's
  /// best-so-far; CONNECTION → pure notification (the tree edge was already
  /// recorded by the sender's connect step).
  template <typename Env>
  void on_message(const Delivery& d, Env& env) {
    ++invocations_;
    if (std::holds_alternative<proto::ConntRequest>(d.msg)) {
      if (rank_less(scheme_, points_, d.from, d.to)) {
        env.unicast(d.to, d.from, sim::MsgKind::kReply, 0, sim::kNoEventNode,
                    0.0,
                    Msg{proto::ConntReply::from_point(points_[d.to], ctx_)});
      }
      return;
    }
    if (std::holds_alternative<proto::ConntReply>(d.msg)) {
      Node& n = nodes_[d.to];
      if (n.best == graph::kNoNode || d.distance < n.best_distance ||
          (d.distance == n.best_distance && d.from < n.best)) {
        n.best = d.from;
        n.best_distance = d.distance;
      }
      return;
    }
    EMST_ASSERT(std::holds_alternative<proto::ConntConnect>(d.msg));
  }

  /// Doubling-round step 1 for one unresolved node: broadcast a REQUEST at
  /// the round's radius, or terminate if the schedule is exhausted (the
  /// top-ranked node). Returns the group flag.
  template <typename Env>
  std::uint8_t step_probe(graph::NodeId u, std::size_t round, Env& env) {
    ++invocations_;
    Node& n = nodes_[u];
    const ProbePlan plan(scheme_, points_[u], n_est_);
    if (round > plan.max_rounds) {
      n.done = true;
      return kConntStepTerminated;
    }
    env.broadcast(u, ProbePlan::radius(round, n_est_), sim::MsgKind::kRequest,
                  0, sim::kNoEventNode,
                  Msg{proto::ConntRequest::from_point(points_[u], ctx_)});
    n.searching = true;
    return kConntStepSearching;
  }

  /// Doubling-round step 3 for one searching node: CONNECT to the nearest
  /// replier (note = chosen parent + distance bit image, for the parent's
  /// tree bookkeeping) or stay unresolved. Clears the round-scoped
  /// best/searching state either way.
  template <typename Env>
  std::uint8_t step_connect(graph::NodeId u, Env& env) {
    ++invocations_;
    Node& n = nodes_[u];
    EMST_ASSERT(n.searching);
    n.searching = false;
    if (n.best == graph::kNoNode) return kConntStepUnresolved;
    env.unicast(u, n.best, sim::MsgKind::kConnection, 0, sim::kNoEventNode,
                0.0, Msg{proto::ConntConnect{}});
    env.note(n.best, std::bit_cast<std::uint64_t>(n.best_distance));
    n.done = true;
    n.best = graph::kNoNode;
    n.best_distance = 0.0;
    return kConntStepConnected;
  }

  /// Epoch reset: exclude the nodes crashed at the current fault clock and
  /// clear all per-run state (docs/ROBUSTNESS.md fail-stop epochs).
  void reset(const sim::FaultInjector& faults, bool faulty) {
    for (graph::NodeId u = 0; u < static_cast<graph::NodeId>(nodes_.size());
         ++u) {
      Node& n = nodes_[u];
      n.excluded = faulty && faults.crashed(u);
      n.done = false;
      n.searching = false;
      n.best = graph::kNoNode;
      n.best_distance = 0.0;
    }
  }

  /// Is `u` in the probe sweep of the next round? (= the parent's
  /// `unresolved` membership; the rank enumerates its local nodes with
  /// this predicate in ascending order.)
  [[nodiscard]] bool unresolved(graph::NodeId u) const {
    const Node& n = nodes_[u];
    return !n.excluded && !n.done;
  }
  /// Is `u` in the connect sweep of the current round?
  [[nodiscard]] bool searching(graph::NodeId u) const {
    return nodes_[u].searching;
  }

  /// Rank-side execution of one choreographed step (actor_rank.hpp). The
  /// probe and connect sweeps enumerate the rank's local nodes in ascending
  /// id order through the unresolved/searching predicates — the exact
  /// projection of the parent's global sweep lists, which stay ascending by
  /// construction — and emit one ACTOR_STEPPED group per invoked node.
  template <typename LocalPred, typename Env, typename Emit>
  void step(std::uint8_t kind, std::uint64_t param,
            std::span<const graph::NodeId> /*list*/,
            const sim::FaultInjector& faults, bool faulty,
            LocalPred&& is_local, Env& env, Emit&& emit) {
    switch (kind) {
      case proto::kDistStepConntProbe:
        for (graph::NodeId u = 0; u < node_count(); ++u) {
          if (!is_local(u) || !unresolved(u)) continue;
          env.begin_entry();
          const std::uint8_t flag =
              step_probe(u, static_cast<std::size_t>(param), env);
          emit(u, flag);
        }
        break;
      case proto::kDistStepConntConnect:
        for (graph::NodeId u = 0; u < node_count(); ++u) {
          if (!is_local(u) || !searching(u)) continue;
          env.begin_entry();
          emit(u, step_connect(u, env));
        }
        break;
      case proto::kDistStepConntReset:
        reset(faults, faulty);
        break;
      default:
        EMST_ASSERT_MSG(false, "Co-NNT actor: unknown step kind");
    }
  }

  [[nodiscard]] graph::NodeId node_count() const {
    return static_cast<graph::NodeId>(nodes_.size());
  }
  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }

  /// Harvest codec: the parent's tree bookkeeping already happened through
  /// notes, so only the termination bits ship home.
  void encode_node(graph::NodeId u, proto::BitWriter& w) const {
    const Node& n = nodes_[u];
    w.write(n.excluded ? 1 : 0, 1);
    w.write(n.done ? 1 : 0, 1);
    w.write(n.searching ? 1 : 0, 1);
  }
  void decode_node(graph::NodeId u, proto::BitReader& r) {
    Node& n = nodes_[u];
    n.excluded = r.read(1) != 0;
    n.done = r.read(1) != 0;
    n.searching = r.read(1) != 0;
  }

 private:
  struct Node {
    bool excluded = false;
    bool done = false;
    bool searching = false;
    graph::NodeId best = graph::kNoNode;
    double best_distance = 0.0;
  };

  std::span<const geometry::Point2> points_;
  RankScheme scheme_;
  double n_est_;
  proto::WireContext ctx_;
  std::vector<Node> nodes_;
  std::uint64_t invocations_ = 0;
};

}  // namespace emst::nnt
