#include "emst/spatial/cell_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "emst/support/assert.hpp"

namespace emst::spatial {

CellGrid::CellGrid(std::span<const geometry::Point2> points, double cell_size,
                   geometry::Rect region)
    : region_(region) {
  EMST_ASSERT(cell_size > 0.0);
  const double extent = std::max(region.width(), region.height());
  EMST_ASSERT(extent > 0.0);
  // Clamp the per-side cell count: tiny radii on huge point sets would
  // otherwise allocate quadratically many empty cells.
  const double max_side =
      std::sqrt(4.0 * static_cast<double>(points.size()) + 64.0) + 1.0;
  double side = std::ceil(extent / cell_size);
  side = std::clamp(side, 1.0, max_side);
  side_ = static_cast<std::size_t>(side);
  cell_ = extent / side;

  offsets_.assign(side_ * side_ + 1, 0);
  for (const geometry::Point2& p : points) ++offsets_[cell_of(p) + 1];
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  members_.resize(points.size());
  coords_.resize(points.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (PointIndex i = 0; i < points.size(); ++i) {
    const std::size_t s = cursor[cell_of(points[i])]++;
    members_[s] = i;
    coords_[s] = points[i];
  }
}

CellGrid CellGrid::with_auto_cell(std::span<const geometry::Point2> points,
                                  geometry::Rect region) {
  const double n = std::max<double>(1.0, static_cast<double>(points.size()));
  const double extent = std::max(region.width(), region.height());
  return CellGrid(points, extent / std::sqrt(n), region);
}

std::size_t CellGrid::cell_of(geometry::Point2 p) const noexcept {
  auto coord = [&](double v, double lo) {
    double c = std::floor((v - lo) / cell_);
    return static_cast<std::size_t>(
        std::clamp(c, 0.0, static_cast<double>(side_ - 1)));
  };
  return coord(p.y, region_.lo.y) * side_ + coord(p.x, region_.lo.x);
}

std::span<const PointIndex> CellGrid::cell_members(std::size_t cx,
                                                   std::size_t cy) const {
  EMST_ASSERT(cx < side_ && cy < side_);
  const std::size_t c = cy * side_ + cx;
  return {members_.data() + offsets_[c], offsets_[c + 1] - offsets_[c]};
}

std::vector<PointIndex> CellGrid::within(geometry::Point2 p, double r) const {
  std::vector<PointIndex> out;
  // Reserve for the expected hit count under uniform density (πr²/area of
  // the indexed points), padded a little so typical queries never regrow.
  const double area = region_.width() * region_.height();
  if (area > 0.0) {
    const double frac = std::min(1.0, std::numbers::pi * r * r / area);
    out.reserve(static_cast<std::size_t>(
                    frac * static_cast<double>(coords_.size()) * 1.25) +
                8);
  }
  for_each_within(p, r, [&](PointIndex i) { out.push_back(i); });
  return out;
}

std::vector<PointIndex> CellGrid::k_nearest(geometry::Point2 p, std::size_t k,
                                            PointIndex exclude) const {
  std::vector<PointIndex> result;
  if (k == 0 || coords_.empty()) return result;
  // Expanding-radius search: start at one-cell scale and double until k
  // candidates are inside the *verified* radius (candidates beyond the scan
  // radius r may be incomplete, so require dist <= r before accepting).
  double r = cell_;
  const double extent = std::hypot(region_.width(), region_.height());
  std::vector<std::pair<double, PointIndex>> candidates;
  candidates.reserve(2 * k + 16);
  for (;;) {
    candidates.clear();
    for_each_within(p, r, [&](PointIndex i, double d_sq) {
      if (i == exclude) return;
      candidates.emplace_back(std::sqrt(d_sq), i);  // == distance(points[i], p)
    });
    if (candidates.size() >= k || r > extent) break;
    r *= 2.0;
  }
  std::sort(candidates.begin(), candidates.end());
  const std::size_t take = std::min(k, candidates.size());
  result.reserve(take);
  for (std::size_t i = 0; i < take; ++i) result.push_back(candidates[i].second);
  return result;
}

}  // namespace emst::spatial
