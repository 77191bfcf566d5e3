#include "emst/nnt/rank.hpp"

#include <algorithm>
#include <cmath>

#include "emst/support/assert.hpp"

namespace emst::nnt {
namespace {

/// Farthest distance from u to any of `vertices`.
double farthest(geometry::Point2 u, std::span<const geometry::Point2> vertices) {
  double best = 0.0;
  for (const geometry::Point2& v : vertices)
    best = std::max(best, geometry::distance(u, v));
  return best;
}

/// Area of the diagonal potential region {p ∈ [0,1]² : p.x+p.y > s}.
double diagonal_area(double s) {
  if (s <= 1.0) return 1.0 - 0.5 * s * s;          // square minus triangle
  const double t = 2.0 - s;                        // remaining triangle leg
  return 0.5 * t * t;
}

}  // namespace

bool rank_less(RankScheme scheme, std::span<const geometry::Point2> points,
               graph::NodeId u, graph::NodeId v) {
  EMST_ASSERT(u < points.size() && v < points.size());
  const geometry::Point2 pu = points[u];
  const geometry::Point2 pv = points[v];
  if (scheme == RankScheme::kDiagonal) {
    const double su = pu.x + pu.y;
    const double sv = pv.x + pv.y;
    if (su != sv) return su < sv;
    if (pu.y != pv.y) return pu.y < pv.y;
  } else {
    if (pu.x != pv.x) return pu.x < pv.x;
    if (pu.y != pv.y) return pu.y < pv.y;
  }
  return u < v;
}

double potential_distance(RankScheme scheme, geometry::Point2 u) {
  if (scheme == RankScheme::kDiagonal) {
    const double s = u.x + u.y;
    if (s <= 1.0) {
      // Closure vertices of R_u: (s,0), (1,0), (1,1), (0,1), (0,s).
      const geometry::Point2 verts[] = {
          {s, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {0.0, s}};
      return farthest(u, verts);
    }
    // Triangle (1, s-1), (1,1), (s-1, 1).
    const geometry::Point2 verts[] = {{1.0, s - 1.0}, {1.0, 1.0}, {s - 1.0, 1.0}};
    return farthest(u, verts);
  }
  // Axis scheme: R_u ≈ {p : p.x ≥ xu}; farthest point is one of its corners.
  const geometry::Point2 verts[] = {
      {1.0, 0.0}, {1.0, 1.0}, {u.x, 0.0}, {u.x, 1.0}};
  return farthest(u, verts);
}

double potential_angle(geometry::Point2 u) {
  const double s = u.x + u.y;
  const double area = diagonal_area(s);
  const double l = potential_distance(RankScheme::kDiagonal, u);
  if (l == 0.0) return 0.0;  // degenerate: u at the (1,1) corner
  return 2.0 * area / (l * l);
}

graph::NodeId brute_force_parent(RankScheme scheme,
                                 std::span<const geometry::Point2> points,
                                 graph::NodeId u, std::span<const char> alive,
                                 double cap) {
  graph::NodeId best = graph::kNoNode;
  double best_d = 0.0;
  for (graph::NodeId v = 0; v < points.size(); ++v) {
    if (v == u || (!alive.empty() && !alive[v])) continue;
    if (!rank_less(scheme, points, u, v)) continue;
    const double d = geometry::distance(points[u], points[v]);
    if (d > cap) continue;
    if (best == graph::kNoNode || d < best_d ||
        (d == best_d && v < best)) {
      best = v;
      best_d = d;
    }
  }
  return best;
}

std::vector<graph::NodeId> survivor_nnt_parents(
    std::span<const geometry::Point2> points, std::span<const char> alive,
    RankScheme scheme) {
  const std::size_t n = points.size();
  EMST_ASSERT(alive.size() == n);
  const double n_est = std::max(2.0, static_cast<double>(n));
  std::vector<graph::NodeId> parent(n, graph::kNoNode);
  for (graph::NodeId u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    const double lu = potential_distance(scheme, points[u]);
    const double m =
        std::max(1.0, std::ceil(std::log2(std::max(2.0, n_est * lu * lu))));
    const double cap =
        std::min(std::sqrt(std::pow(2.0, m) / n_est), std::sqrt(2.0));
    parent[u] = brute_force_parent(scheme, points, u, alive, cap);
  }
  return parent;
}

}  // namespace emst::nnt
