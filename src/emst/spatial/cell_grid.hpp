// Uniform cell grid over the unit square.
//
// The workhorse spatial index: RGG construction, the Co-NNT doubling-radius
// probes, and the lower-bound experiment's k-nearest-neighbour queries all
// reduce to "enumerate points within radius r of p", which the grid answers
// in expected O(points returned) by scanning the O((r/cell)²) overlapping
// cells.
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
