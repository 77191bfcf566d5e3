// Uniform cell grid over the unit square.
//
// The workhorse spatial index: the Co-NNT doubling-radius probes, the
// implicit topology's neighbourhoods and the lower-bound experiment's
// k-nearest-neighbour queries all reduce to "enumerate points within radius
// r of p", which the grid answers in expected O(points returned) by
// scanning the O((r/cell)²) overlapping cells. RGG construction instead
// enumerates every pair within r once (for_each_pair_within).
//
// The grid keeps its own copy of every point's coordinates in CSR member
// order (16 B per point), so a scan reads candidates contiguously instead
// of loading points[i] at random.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "emst/geometry/point.hpp"
#include "emst/geometry/rect.hpp"
#include "emst/support/assert.hpp"

namespace emst::spatial {

using PointIndex = std::uint32_t;

class CellGrid {
 public:
  /// Index `points` with cells of side `cell_size` over `region`. The grid
  /// copies the coordinates, so `points` need not outlive it. cell_size is
  /// clamped so the grid has at least one and at most ~4·|points| + 64
  /// cells per dimension squared.
  CellGrid(std::span<const geometry::Point2> points, double cell_size,
           geometry::Rect region = geometry::unit_square());

  /// Convenience: pick a cell size targeting ~1 point per cell.
  static CellGrid with_auto_cell(std::span<const geometry::Point2> points,
                                 geometry::Rect region = geometry::unit_square());

  /// Invoke fn(index) for every indexed point with distance(p, point) <= r
  /// (Euclidean). Includes the query point itself if it is indexed. A
  /// callable taking (index, d²) also receives the squared distance,
  /// bitwise equal to distance_sq(points[index], p). The visit order is the
  /// same for both forms.
  /// Templated on the callable so the per-point distance test inlines: this
  /// is the hot path of every implicit neighbor walk, where a std::function
  /// hop per candidate would dominate the scan.
  template <typename Fn>
  void for_each_within(geometry::Point2 p, double r, Fn&& fn) const {
    const double r_sq = r * r;
    auto clamp_cell = [&](double v, double lo) noexcept {
      const double c = std::floor((v - lo) / cell_);
      return static_cast<std::size_t>(
          std::clamp(c, 0.0, static_cast<double>(side_ - 1)));
    };
    const std::size_t x_lo = clamp_cell(p.x - r, region_.lo.x);
    const std::size_t x_hi = clamp_cell(p.x + r, region_.lo.x);
    const std::size_t y_lo = clamp_cell(p.y - r, region_.lo.y);
    const std::size_t y_hi = clamp_cell(p.y + r, region_.lo.y);
    for (std::size_t cy = y_lo; cy <= y_hi; ++cy) {
      // Cells [x_lo..x_hi] of one row are adjacent in the CSR, so the row's
      // members form a single contiguous slice — one scan per row instead of
      // a span fetch per cell. Visit order (row-major cells, CSR order within
      // each) is unchanged.
      const std::size_t row = cy * side_;
      const std::size_t begin = offsets_[row + x_lo];
      const std::size_t end = offsets_[row + x_hi + 1];
      for (std::size_t s = begin; s < end; ++s) {
        const double d_sq = geometry::distance_sq(coords_[s], p);
        if (d_sq > r_sq) continue;
        if constexpr (std::is_invocable_v<Fn&, PointIndex, double>) {
          fn(members_[s], d_sq);
        } else {
          fn(members_[s]);
        }
      }
    }
  }

  /// Invoke fn(i, j, d²) once for every unordered pair of indexed points
  /// within distance r of each other, with i < j and d² bitwise equal to
  /// distance_sq(points[i], points[j]) — the membership test of
  /// for_each_within, so the pairs are those its queries find. Two points
  /// within r lie at most reach = ⌈r / cell⌉ cells apart on each axis (the
  /// clamp into the region only shortens that), so each point scans the
  /// rest of its cell and the next `reach` cells of its row, one contiguous
  /// slice, and then the cells cx − reach … cx + reach of the next `reach`
  /// rows: each pair is seen from exactly one of its points. Exact for any
  /// cell size; cells no smaller than r (reach 1) scan the least.
  template <typename Fn>
  void for_each_pair_within(double r, Fn&& fn) const {
    EMST_ASSERT(r >= 0.0);
    const double r_sq = r * r;
    const double cells = std::ceil(r / cell_);
    const std::size_t reach = cells < static_cast<double>(side_)
                                  ? static_cast<std::size_t>(cells)
                                  : side_;
    for (std::size_t cy = 0; cy < side_; ++cy) {
      const std::size_t y_hi = std::min(cy + reach, side_ - 1);
      for (std::size_t cx = 0; cx < side_; ++cx) {
        const std::size_t x_lo = cx > reach ? cx - reach : 0;
        const std::size_t x_hi = std::min(cx + reach, side_ - 1);
        const std::size_t row_end = offsets_[cy * side_ + x_hi + 1];
        const std::size_t cell_end = offsets_[cy * side_ + cx + 1];
        for (std::size_t s = offsets_[cy * side_ + cx]; s < cell_end; ++s) {
          const geometry::Point2 p = coords_[s];
          const PointIndex a = members_[s];
          const auto scan = [&](std::size_t begin, std::size_t end) {
            for (std::size_t t = begin; t < end; ++t) {
              const double d_sq = geometry::distance_sq(p, coords_[t]);
              if (d_sq > r_sq) continue;
              const PointIndex b = members_[t];
              fn(std::min(a, b), std::max(a, b), d_sq);
            }
          };
          scan(s + 1, row_end);
          for (std::size_t ny = cy + 1; ny <= y_hi; ++ny) {
            scan(offsets_[ny * side_ + x_lo], offsets_[ny * side_ + x_hi + 1]);
          }
        }
      }
    }
  }

  /// Indices of all points within Euclidean distance r of p.
  [[nodiscard]] std::vector<PointIndex> within(geometry::Point2 p, double r) const;

  /// The k nearest indexed points to p, excluding `exclude` (pass a
  /// non-index like UINT32_MAX to exclude none), sorted by distance.
  /// Returns fewer than k if the index holds fewer points.
  [[nodiscard]] std::vector<PointIndex> k_nearest(geometry::Point2 p, std::size_t k,
                                                  PointIndex exclude) const;

  [[nodiscard]] std::size_t point_count() const noexcept { return coords_.size(); }
  [[nodiscard]] std::size_t cells_per_side() const noexcept { return side_; }
  [[nodiscard]] double cell_size() const noexcept { return cell_; }

  /// Points bucketed in grid cell (cx, cy).
  [[nodiscard]] std::span<const PointIndex> cell_members(std::size_t cx,
                                                         std::size_t cy) const;

 private:
  [[nodiscard]] std::size_t cell_of(geometry::Point2 p) const noexcept;

  geometry::Rect region_;
  double cell_ = 0.0;
  std::size_t side_ = 0;
  std::vector<std::size_t> offsets_;      // CSR over cells
  std::vector<PointIndex> members_;
  std::vector<geometry::Point2> coords_;  // coordinates of members_[s]
};

}  // namespace emst::spatial
