#include "emst/graph/edge.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "emst/support/assert.hpp"

namespace emst::graph {

namespace {

// Mean bucket size when w² is uniform. BM_SortEdges/50000 (2.13 M edges)
// read 80–87 ms at 4, 85–92 ms at 8 and 99–125 ms at 2, on one pinned core
// of a shared 4-vCPU x86-64 VM.
constexpr std::size_t kEdgesPerBucket = 4;

}  // namespace

void sort_edges(std::vector<Edge>& edges) {
  const std::size_t m = edges.size();
  if (m < 2) return;
  EMST_ASSERT_MSG(m <= std::numeric_limits<std::uint32_t>::max(),
                  "sort_edges counts bucket positions in 32 bits");
  double w_max = 0.0;
  for (const Edge& e : edges) {
    // Also false for NaN. A negative weight would break the key's order.
    EMST_ASSERT_MSG(e.w >= 0.0, "edge weights must be numbers >= 0");
    w_max = std::max(w_max, e.w);
  }
  // key(w) = min(B - 1, ⌊w·w·(B / w_max²)⌋). Squaring, scaling by a number
  // >= 0, clamping and truncating are each non-decreasing under IEEE
  // rounding, so equal weights share a bucket and key(a) < key(b) implies
  // a.w < b.w: the buckets in key order, each sorted by edge_less, are the
  // edge_less order.
  const std::size_t buckets = std::max<std::size_t>(1, m / kEdgesPerBucket);
  const double top = static_cast<double>(buckets - 1);
  double scale = static_cast<double>(buckets) / (w_max * w_max);
  if (!std::isfinite(scale)) scale = 0.0;  // w_max = 0 or w_max² underflows
  const auto key = [top, scale](double w) {
    const double k = w * w * scale;
    // `k < top` is false for NaN, which only an infinite w·w times a zero
    // scale gives (the heaviest edges), so the cast sees [0, top] only.
    return static_cast<std::uint32_t>(k < top ? k : top);
  };
  // start[b] is bucket b's first slot; the scatter advances it to its end.
  std::vector<std::uint32_t> start(buckets + 1, 0);
  for (const Edge& e : edges) ++start[key(e.w) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) start[b] += start[b - 1];
  std::vector<Edge> sorted(m);
  for (const Edge& e : edges) sorted[start[key(e.w)]++] = e;
  std::uint32_t begin = 0;
  for (std::size_t bucket = 0; bucket < buckets; ++bucket) {
    const std::uint32_t end = start[bucket];
    if (end - begin > 1) {
      std::sort(sorted.begin() + begin, sorted.begin() + end,
                [](const Edge& a, const Edge& b) { return edge_less(a, b); });
    }
    begin = end;
  }
  // The unsorted list is freed on return, before a caller such as
  // AdjacencyList allocates its rows.
  edges.swap(sorted);
}

}  // namespace emst::graph
