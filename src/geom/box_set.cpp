#include "finser/geom/box_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "finser/obs/obs.hpp"
#include "finser/util/error.hpp"

namespace finser::geom {

std::uint32_t BoxSet::add(const Aabb& box) {
  FINSER_REQUIRE(box.valid(), "BoxSet::add: invalid box (lo > hi)");
  boxes_.push_back(box);
  return static_cast<std::uint32_t>(boxes_.size() - 1);
}

Aabb BoxSet::bounds() const {
  FINSER_REQUIRE(!boxes_.empty(), "BoxSet::bounds: empty set");
  Aabb b = boxes_.front();
  for (const Aabb& x : boxes_) b.expand(x);
  return b;
}

namespace {

/// Order hits by entry parameter (both query paths share it).
void sort_by_entry(std::vector<BoxHit>& hits) {
  if (hits.size() < 2) return;
  std::sort(hits.begin(), hits.end(), [](const BoxHit& a, const BoxHit& b) {
    return a.interval.t_in < b.interval.t_in;
  });
}

}  // namespace

void BoxSet::query(const Ray& ray, std::vector<BoxHit>& out) const {
  FINSER_OBS_COUNT("geom.box_queries", 1);
  out.clear();
  const SlabRay slab(ray);
  for (std::uint32_t id = 0; id < boxes_.size(); ++id) {
    if (auto iv = boxes_[id].intersect(slab)) {
      out.push_back(BoxHit{id, *iv});
    }
  }
  sort_by_entry(out);
}

UniformGrid::UniformGrid(BoxSet set, double target_boxes_per_cell)
    : set_(std::move(set)) {
  FINSER_REQUIRE(!set_.empty(), "UniformGrid: empty BoxSet");
  FINSER_REQUIRE(target_boxes_per_cell > 0.0,
                 "UniformGrid: target_boxes_per_cell must be positive");
  const Aabb tight = set_.bounds();
  bounds_ = tight;
  // Pad bounds slightly so boundary geometry is strictly inside.
  const Vec3 pad = (bounds_.extent() + Vec3{1.0, 1.0, 1.0}) * 1e-6;
  bounds_.lo -= pad;
  bounds_.hi += pad;

  const Vec3 ext = bounds_.extent();
  const double n_boxes = static_cast<double>(set_.size());
  const double cells_target = std::max(1.0, n_boxes / target_boxes_per_cell);
  const double vol = std::max(ext.x * ext.y * ext.z, 1e-30);
  const double scale = std::cbrt(cells_target / vol);
  const double* e = &ext.x;
  for (int a = 0; a < 3; ++a) {
    n_[a] = std::clamp(static_cast<int>(std::ceil(e[a] * scale)), 1, 256);
  }
  cell_size_ = {ext.x / n_[0], ext.y / n_[1], ext.z / n_[2]};

  // Each cell's box ids, in id order, as one flat list: count, then fill.
  const std::size_t n_cells = static_cast<std::size_t>(n_[0]) *
                              static_cast<std::size_t>(n_[1]) *
                              static_cast<std::size_t>(n_[2]);
  cell_start_.assign(n_cells + 1, 0);
  const auto for_each_cell = [&](const Aabb& b, const auto& fn) {
    int lo_c[3], hi_c[3];
    const double* blo = &b.lo.x;
    const double* bhi = &b.hi.x;
    const double* glo = &bounds_.lo.x;
    const double* cs = &cell_size_.x;
    for (int a = 0; a < 3; ++a) {
      lo_c[a] = std::clamp(static_cast<int>((blo[a] - glo[a]) / cs[a]), 0, n_[a] - 1);
      hi_c[a] = std::clamp(static_cast<int>((bhi[a] - glo[a]) / cs[a]), 0, n_[a] - 1);
    }
    for (int iz = lo_c[2]; iz <= hi_c[2]; ++iz) {
      for (int iy = lo_c[1]; iy <= hi_c[1]; ++iy) {
        for (int ix = lo_c[0]; ix <= hi_c[0]; ++ix) fn(cell_index(ix, iy, iz));
      }
    }
  };
  for (const Aabb& b : set_.boxes()) {
    for_each_cell(b, [&](std::size_t c) { ++cell_start_[c + 1]; });
  }
  for (std::size_t c = 0; c < n_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_boxes_.resize(cell_start_[n_cells]);
  std::vector<std::uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (std::uint32_t id = 0; id < set_.size(); ++id) {
    for_each_cell(set_.box(id),
                  [&](std::size_t c) { cell_boxes_[fill[c]++] = id; });
  }

  // Footprint table over the boxes' tight x-y extent. Its counts are 16
  // bits wide, so the raster has at most kFootprintMaxCells cells: a layout
  // that needs more at kFootprintCellNm gets wider cells.
  const double* tlo = &tight.lo.x;
  const double* thi = &tight.hi.x;
  double cell = kFootprintCellNm;
  const auto cells_along = [&](int a) {
    return std::max(1.0, std::ceil((thi[a] - tlo[a]) / cell));
  };
  while (cells_along(0) * cells_along(1) > kFootprintMaxCells) cell *= 1.25;
  for (int a = 0; a < 2; ++a) {
    raster_inv_[a] = 1.0 / cell;
    raster_n_[a] = static_cast<int>(cells_along(a));
    foot_lo_[a] = tlo[a];
    foot_hi_[a] = thi[a];
  }
  // Mark each touched cell (ix, iy) at table entry (ix + 1, iy + 1), then
  // sum the table in place, row by row.
  const auto nx1 = static_cast<std::size_t>(raster_n_[0]) + 1;
  const auto ny1 = static_cast<std::size_t>(raster_n_[1]) + 1;
  footprint_sat_.assign(nx1 * ny1, 0);
  for (const Aabb& b : set_.boxes()) {
    const auto x0 = static_cast<std::size_t>(raster_cell(0, b.lo.x)) + 1;
    const auto x1 = static_cast<std::size_t>(raster_cell(0, b.hi.x)) + 1;
    const auto y0 = static_cast<std::size_t>(raster_cell(1, b.lo.y)) + 1;
    const auto y1 = static_cast<std::size_t>(raster_cell(1, b.hi.y)) + 1;
    for (std::size_t iy = y0; iy <= y1; ++iy) {
      for (std::size_t ix = x0; ix <= x1; ++ix) footprint_sat_[iy * nx1 + ix] = 1;
    }
  }
  for (std::size_t iy = 1; iy < ny1; ++iy) {
    for (std::size_t ix = 1; ix < nx1; ++ix) {
      footprint_sat_[iy * nx1 + ix] = static_cast<std::uint16_t>(
          footprint_sat_[iy * nx1 + ix] + footprint_sat_[(iy - 1) * nx1 + ix] +
          footprint_sat_[iy * nx1 + ix - 1] -
          footprint_sat_[(iy - 1) * nx1 + ix - 1]);
    }
  }
  const double* glo = &bounds_.lo.x;
  const double* ghi = &bounds_.hi.x;
  for (int a = 0; a < 3; ++a) {
    scale_ = std::max(scale_, std::max(std::abs(glo[a]), std::abs(ghi[a])) + 1.0);
  }
}

int UniformGrid::raster_cell(int a, double v) const {
  const double c = std::floor((v - foot_lo_[a]) * raster_inv_[a]);
  return static_cast<int>(
      std::clamp(c, 0.0, static_cast<double>(raster_n_[a] - 1)));
}

bool UniformGrid::footprint_empty(double x_lo, double x_hi, double y_lo,
                                  double y_hi) const {
  // Written so that a NaN bound fails every comparison and reads non-empty.
  if (!(x_lo <= x_hi && y_lo <= y_hi)) return false;
  // Every footprint lies in the boxes' x-y extent.
  if (x_hi < foot_lo_[0] || x_lo > foot_hi_[0] || y_hi < foot_lo_[1] ||
      y_lo > foot_hi_[1]) {
    return true;
  }
  const auto nx1 = static_cast<std::size_t>(raster_n_[0]) + 1;
  const auto x0 = static_cast<std::size_t>(raster_cell(0, x_lo));
  const auto x1 = static_cast<std::size_t>(raster_cell(0, x_hi)) + 1;
  const auto y0 = static_cast<std::size_t>(raster_cell(1, y_lo));
  const auto y1 = static_cast<std::size_t>(raster_cell(1, y_hi)) + 1;
  return footprint_sat_[y1 * nx1 + x1] - footprint_sat_[y0 * nx1 + x1] -
             footprint_sat_[y1 * nx1 + x0] + footprint_sat_[y0 * nx1 + x0] ==
         0;
}

bool UniformGrid::reach_empty(double x, double y, double dx,
                              double dy) const {
  // The slab kernel and the direction's trig round within a few ulps of the
  // coordinates involved; 1e-9 of their scale covers that a million times
  // over and stays far below a raster cell.
  const double r =
      1e-9 * (std::abs(dx) + std::abs(dy) + std::abs(x) + std::abs(y) + 1.0);
  return footprint_empty(std::min(x, x + dx) - r, std::max(x, x + dx) + r,
                         std::min(y, y + dy) - r, std::max(y, y + dy) + r);
}

bool UniformGrid::segment_misses(const Ray& ray) const {
  const auto entry = bounds_.intersect(SlabRay(ray));
  return !entry || segment_misses(ray, *entry);
}

bool UniformGrid::segment_misses(const Ray& ray,
                                 const RayInterval& entry) const {
  // A box the ray crosses lies inside the bounds, so its slab interval lies
  // inside [t_in, t_out] and the crossing inside this segment's x-y
  // rectangle, up to rounding (see reach_empty).
  const Vec3 a = ray.at(entry.t_in);
  const Vec3 b = ray.at(entry.t_out);
  const double r =
      1e-9 * (std::abs(ray.origin.x) + std::abs(ray.origin.y) +
              (std::abs(ray.dir.x) + std::abs(ray.dir.y)) * entry.t_out +
              scale_);
  return footprint_empty(std::min(a.x, b.x) - r, std::max(a.x, b.x) + r,
                         std::min(a.y, b.y) - r, std::max(a.y, b.y) + r);
}

void UniformGrid::query(const Ray& ray, std::vector<BoxHit>& out) const {
  FINSER_OBS_COUNT("geom.grid_queries", 1);
  out.clear();
  const SlabRay slab(ray);
  const auto entry = bounds_.intersect(slab);
  if (!entry) return;
  if (segment_misses(ray, *entry)) {
    FINSER_OBS_COUNT("geom.grid.prefilter_rejects", 1);
    return;
  }

  // 3-D DDA setup: walk cells from the entry point.
  const double t_start = std::max(entry->t_in, 0.0);
  const Vec3 p = ray.at(t_start + 1e-12);
  const double* pp = &p.x;
  const double* glo = &bounds_.lo.x;
  const double* cs = &cell_size_.x;
  const double* dir = &ray.dir.x;

  int cell[3];
  int step[3];
  double t_max[3];
  double t_delta[3];
  for (int a = 0; a < 3; ++a) {
    cell[a] = std::clamp(static_cast<int>((pp[a] - glo[a]) / cs[a]), 0, n_[a] - 1);
    if (dir[a] > 0.0) {
      step[a] = 1;
      const double next = glo[a] + (cell[a] + 1) * cs[a];
      t_max[a] = t_start + (next - pp[a]) / dir[a];
      t_delta[a] = cs[a] / dir[a];
    } else if (dir[a] < 0.0) {
      step[a] = -1;
      const double next = glo[a] + cell[a] * cs[a];
      t_max[a] = t_start + (next - pp[a]) / dir[a];
      t_delta[a] = -cs[a] / dir[a];
    } else {
      step[a] = 0;
      t_max[a] = std::numeric_limits<double>::infinity();
      t_delta[a] = std::numeric_limits<double>::infinity();
    }
  }

  const double t_end = entry->t_out;
  while (true) {
    const std::size_t c = cell_index(cell[0], cell[1], cell[2]);
    for (std::size_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
      const std::uint32_t id = cell_boxes_[k];
      // A box spanning several cells is met again: skip it if it already
      // hit. One that missed just misses again (the slab test is exact),
      // so each hit is reported once, in the order the walk first meets it.
      if (std::any_of(out.begin(), out.end(),
                      [id](const BoxHit& h) { return h.id == id; })) {
        continue;
      }
      if (auto iv = set_.box(id).intersect(slab)) {
        out.push_back(BoxHit{id, *iv});
      }
    }
    // Advance to the next cell.
    int axis = 0;
    if (t_max[1] < t_max[axis]) axis = 1;
    if (t_max[2] < t_max[axis]) axis = 2;
    if (t_max[axis] > t_end) break;
    cell[axis] += step[axis];
    if (cell[axis] < 0 || cell[axis] >= n_[axis]) break;
    t_max[axis] += t_delta[axis];
  }

  sort_by_entry(out);
}

}  // namespace finser::geom
