// Node ranking schemes for nearest-neighbour trees (paper §VI).
//
// Co-NNT connects every node (except the top-ranked one) to its nearest node
// of *higher* rank. The paper's ranking is the diagonal sweep
//   rank(u) < rank(v)  iff  (xu+yu < xv+yv) or (xu+yu = xv+yv and yu < yv),
// chosen so that every node's *potential region* Ru (the part of the unit
// square strictly above its diagonal) subtends a potential angle ≥ ½ radian
// (Lemma 6.1), which bounds the nearest-higher-rank distance (Lemma 6.2) and
// keeps it within Θ(√(log n / n)) WHP (Lemma 6.3).
//
// The axis ranking of Khan–Pandurangan–Kumar [15] ((x, y) lexicographic) is
// provided as an ablation: it also yields an O(1)-approximate NNT, but nodes
// near the right edge may need to search far, which is why the paper replaced
// it in the unit-disk setting.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/graph/edge.hpp"

namespace emst::nnt {

enum class RankScheme {
  kDiagonal,  ///< paper §VI: (x+y, y), then node id
  kAxis,      ///< [15]: (x, y), then node id
};

/// Strict total order; node ids break (measure-zero) coordinate ties.
[[nodiscard]] bool rank_less(RankScheme scheme,
                             std::span<const geometry::Point2> points,
                             graph::NodeId u, graph::NodeId v);

/// The potential distance L_u: the distance from u to the farthest point of
/// the closure of its potential region R_u (u can stop probing beyond it).
[[nodiscard]] double potential_distance(RankScheme scheme, geometry::Point2 u);

/// The potential angle α_u = 2·A_u / L_u² of Lemma 6.1 (diagonal scheme
/// only). Used by tests to check α_u ≥ ½.
[[nodiscard]] double potential_angle(geometry::Point2 u);

/// Brute-force nearest higher-ranked node (kNoNode for the top-ranked one),
/// among the nodes `alive` marks (every node when empty) within `cap`.
/// O(n) per call; validation/reference only.
[[nodiscard]] graph::NodeId brute_force_parent(
    RankScheme scheme, std::span<const geometry::Point2> points,
    graph::NodeId u, std::span<const char> alive = {},
    double cap = std::numeric_limits<double>::infinity());

/// The Co-NNT contract under fail-stop crashes: every survivor parents its
/// nearest higher-ranked survivor within the doubling schedule's terminal
/// radius (the protocol stops after m = ⌈lg(n·L_u²)⌉ rounds, so a node whose
/// higher-ranked neighbours all died beyond it terminates as a root). Dead
/// nodes stay parentless. The chaos suites' O(n²) oracle.
[[nodiscard]] std::vector<graph::NodeId> survivor_nnt_parents(
    std::span<const geometry::Point2> points, std::span<const char> alive,
    RankScheme scheme);

}  // namespace emst::nnt
