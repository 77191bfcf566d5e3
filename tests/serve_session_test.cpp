// Differential tests for the serve Session (serve/session.hpp): after every
// commit the maintained tree must equal graph::kruskal_msf over the alive
// deployment at the operating radius — across seeds, mutation mixes, and
// the incremental/rebuild boundary. Rebuilds, which run on the implicit
// grid, must also equal the facade's run on the CSR.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "emst/geometry/sampling.hpp"
#include "emst/graph/edge.hpp"
#include "emst/serve/session.hpp"
#include "emst/sim/topology.hpp"
#include "emst/support/rng.hpp"

namespace emst::serve {
namespace {

using geometry::Point2;

SessionConfig exact_config() {
  SessionConfig cfg;
  cfg.run.driver = Driver::kEopt;
  return cfg;
}

std::vector<Point2> deployment(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return geometry::uniform_points(n, rng);
}

/// The exactness contract, checked from outside the session (the built-in
/// verify_after_commit assert is the belt; this is the suspenders).
void expect_exact(const Session& s) {
  const std::vector<graph::Edge> ref = s.reference_msf();
  ASSERT_EQ(s.tree().size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(s.tree()[i], ref[i]) << "edge " << i;
    EXPECT_DOUBLE_EQ(s.tree()[i].w, ref[i].w) << "edge " << i;
  }
}

/// Pick a random committed-alive id, or kNoNode if none.
NodeId random_alive(const Session& s, support::Rng& rng) {
  if (s.alive_count() == 0) return graph::kNoNode;
  for (int tries = 0; tries < 256; ++tries) {
    const auto id =
        static_cast<NodeId>(rng.uniform_int(s.capacity()));
    if (s.alive(id)) return id;
  }
  return graph::kNoNode;
}

TEST(ServeSession, InitialBuildMatchesKruskal) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Session s(deployment(150, seed), exact_config());
    EXPECT_EQ(s.alive_count(), 150u);
    EXPECT_GT(s.radius(), 0.0);
    expect_exact(s);
  }
}

TEST(ServeSession, RandomChurnStaysExact) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    Session s(deployment(120, seed), exact_config());
    support::Rng rng(seed * 1000 + 7);
    for (int round = 0; round < 8; ++round) {
      const int ops = 1 + static_cast<int>(rng.uniform_int(6));
      for (int k = 0; k < ops; ++k) {
        const std::uint64_t pick = rng.uniform_int(3);
        if (pick == 0) {
          EXPECT_NE(s.queue_add({rng.uniform(), rng.uniform()}),
                    graph::kNoNode);
        } else if (pick == 1) {
          const NodeId id = random_alive(s, rng);
          if (id != graph::kNoNode) (void)s.queue_remove(id);
        } else {
          const NodeId id = random_alive(s, rng);
          if (id != graph::kNoNode)
            (void)s.queue_move(id, {rng.uniform(), rng.uniform()});
        }
      }
      const CommitOutcome out = s.commit();
      EXPECT_GT(out.nodes_touched, 0u);
      expect_exact(s);
    }
  }
}

TEST(ServeSession, RemoveOnlyBatchesStayExact) {
  // Pure removals exercise the Borůvka repair path (torn fragments, passive
  // giants) with no Chin–Houck insertions to mask a wrong reconnect.
  Session s(deployment(140, 5), exact_config());
  support::Rng rng(99);
  for (int round = 0; round < 10 && s.alive_count() > 20; ++round) {
    for (int k = 0; k < 4; ++k) {
      const NodeId id = random_alive(s, rng);
      if (id != graph::kNoNode) (void)s.queue_remove(id);
    }
    (void)s.commit();
    expect_exact(s);
  }
}

TEST(ServeSession, MoveOnlyBatchesStayExact) {
  // Moves are a removal and an insertion of the same id in one commit.
  Session s(deployment(100, 6), exact_config());
  support::Rng rng(123);
  for (int round = 0; round < 8; ++round) {
    for (int k = 0; k < 3; ++k) {
      const NodeId id = random_alive(s, rng);
      if (id != graph::kNoNode) {
        EXPECT_TRUE(s.queue_move(id, {rng.uniform(), rng.uniform()}));
      }
    }
    (void)s.commit();
    expect_exact(s);
  }
}

TEST(ServeSession, IdsAreMonotoneAndNeverReused) {
  Session s(deployment(10, 1), exact_config());
  const NodeId a = s.queue_add({0.5, 0.5});
  const NodeId b = s.queue_add({0.25, 0.25});
  EXPECT_EQ(a, 10u);
  EXPECT_EQ(b, 11u);
  (void)s.commit();
  ASSERT_TRUE(s.queue_remove(a));
  (void)s.commit();
  EXPECT_FALSE(s.alive(a));
  // The freed slot is never handed out again.
  EXPECT_EQ(s.queue_add({0.75, 0.75}), 12u);
  EXPECT_EQ(s.capacity(), 13u);
}

TEST(ServeSession, QueueValidation) {
  Session s(deployment(20, 2), exact_config());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(s.queue_add({inf, 0.0}), graph::kNoNode);
  EXPECT_EQ(s.queue_add({0.0, nan}), graph::kNoNode);
  EXPECT_FALSE(s.queue_remove(999));
  EXPECT_FALSE(s.queue_move(999, {0.1, 0.1}));
  EXPECT_FALSE(s.queue_move(3, {nan, 0.1}));

  // add → remove in the same batch cancels out entirely.
  const NodeId fresh = s.queue_add({0.5, 0.5});
  ASSERT_NE(fresh, graph::kNoNode);
  EXPECT_TRUE(s.queue_remove(fresh));
  EXPECT_FALSE(s.queue_remove(fresh));  // already gone from the batch
  // remove → further ops on the id are invalid within the batch.
  ASSERT_TRUE(s.queue_remove(4));
  EXPECT_FALSE(s.queue_remove(4));
  EXPECT_FALSE(s.queue_move(4, {0.2, 0.2}));

  const CommitOutcome out = s.commit();
  EXPECT_EQ(s.alive_count(), 19u);  // only the remove of 4 survived
  EXPECT_FALSE(s.alive(4));
  EXPECT_GE(out.admitted, 1u);
  expect_exact(s);
}

TEST(ServeSession, EmptyCommitIsANoOp) {
  Session s(deployment(30, 3), exact_config());
  const std::vector<graph::Edge> before = s.tree();
  const CommitOutcome out = s.commit();
  EXPECT_EQ(out.admitted, 0u);
  EXPECT_FALSE(out.rebuilt);
  EXPECT_EQ(s.tree(), before);
}

TEST(ServeSession, SmallBatchRepairIsLocal) {
  // The whole point of the incremental path: a constant-size batch on a
  // large deployment must not touch a constant fraction of it.
  Session s(deployment(2000, 4), exact_config());
  ASSERT_TRUE(s.queue_remove(17));
  const NodeId fresh = s.queue_add({0.5, 0.5});
  ASSERT_NE(fresh, graph::kNoNode);
  const CommitOutcome out = s.commit();
  EXPECT_FALSE(out.rebuilt);
  EXPECT_GT(out.nodes_touched, 0u);
  EXPECT_LT(out.nodes_touched, s.alive_count() / 4);
  expect_exact(s);
}

TEST(ServeSession, ChurnTriggersRebuild) {
  SessionConfig cfg = exact_config();
  cfg.rebuild_churn_fraction = 0.05;  // rebuild after >5% churn
  Session s(deployment(100, 7), cfg);
  support::Rng rng(7);
  for (int k = 0; k < 10; ++k)
    ASSERT_NE(s.queue_add({rng.uniform(), rng.uniform()}), graph::kNoNode);
  const CommitOutcome out = s.commit();
  EXPECT_TRUE(out.rebuilt);
  EXPECT_EQ(s.stats().rebuilds, 1u);
  expect_exact(s);
}

TEST(ServeSession, RadiusDriftTriggersRebuild) {
  // Halving the population moves the connectivity radius well past the
  // drift tolerance even though churn per batch stays under the fraction.
  SessionConfig cfg = exact_config();
  cfg.rebuild_churn_fraction = 10.0;  // churn alone never triggers
  cfg.rebuild_radius_drift = 0.10;
  Session s(deployment(200, 8), cfg);
  const double r0 = s.radius();
  support::Rng rng(8);
  bool rebuilt = false;
  while (s.alive_count() > 50 && !rebuilt) {
    for (int k = 0; k < 10; ++k) {
      const NodeId id = random_alive(s, rng);
      if (id != graph::kNoNode) (void)s.queue_remove(id);
    }
    rebuilt = s.commit().rebuilt;
    expect_exact(s);
  }
  EXPECT_TRUE(rebuilt);
  EXPECT_GT(s.radius(), r0);
}

TEST(ServeSession, StatsAccumulate) {
  Session s(deployment(50, 9), exact_config());
  ASSERT_NE(s.queue_add({0.1, 0.9}), graph::kNoNode);
  (void)s.commit();
  ASSERT_TRUE(s.queue_remove(0));
  (void)s.commit();
  const SessionStats& st = s.stats();
  EXPECT_EQ(st.commits, 2u);
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_GT(st.nodes_touched, 0u);
}

TEST(ServeSession, BackendsAgreeBitwise) {
  // Rebuilds run the facade on the implicit grid (run(const Instance&));
  // each rebuilt tree must equal, bitwise, the facade's run on the CSR of
  // the same alive points and radius (docs/PERF.md).
  SessionConfig cfg = exact_config();
  cfg.rebuild_churn_fraction = 0.0;  // force rebuilds
  Session s(deployment(120, 10), cfg);
  support::Rng rng(10);
  for (int round = 0; round < 4; ++round) {
    const Point2 p{rng.uniform(), rng.uniform()};
    const auto victim = static_cast<NodeId>(rng.uniform_int(60));
    ASSERT_NE(s.queue_add(p), graph::kNoNode);
    if (s.alive(victim)) {
      ASSERT_TRUE(s.queue_remove(victim));
    }
    EXPECT_TRUE(s.commit().rebuilt);

    std::vector<NodeId> ids;
    std::vector<Point2> points;
    for (NodeId u = 0; u < s.capacity(); ++u) {
      if (!s.alive(u)) continue;
      ids.push_back(u);
      points.push_back(s.position(u));
    }
    const RunResult csr = run(sim::Topology(points, s.radius()), cfg.run);
    std::vector<graph::Edge> want;
    for (const graph::Edge& e : csr.tree)
      want.push_back(graph::Edge{ids[e.u], ids[e.v], e.w}.canonical());
    graph::sort_edges(want);
    ASSERT_EQ(s.tree().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(s.tree()[i], want[i]) << "edge " << i;
      EXPECT_EQ(s.tree()[i].w, want[i].w) << "edge " << i;  // bitwise
    }
  }
}

TEST(ServeSession, VerifyAfterCommitModeRuns) {
  SessionConfig cfg = exact_config();
  cfg.verify_after_commit = true;  // the session asserts exactness itself
  Session s(deployment(80, 11), cfg);
  support::Rng rng(11);
  for (int round = 0; round < 3; ++round) {
    ASSERT_NE(s.queue_add({rng.uniform(), rng.uniform()}), graph::kNoNode);
    const NodeId id = random_alive(s, rng);
    if (id != graph::kNoNode) (void)s.queue_remove(id);
    (void)s.commit();
  }
  expect_exact(s);
}

}  // namespace
}  // namespace emst::serve
