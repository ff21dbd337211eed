#include "finser/geom/box_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

UniformGrid::UniformGrid(const BoxSet& set, double target_boxes_per_cell)
    : set_(&set) {
  FINSER_REQUIRE(!set.empty(), "UniformGrid: empty BoxSet");
  FINSER_REQUIRE(target_boxes_per_cell > 0.0,
                 "UniformGrid: target_boxes_per_cell must be positive");
  bounds_ = set.bounds();
  // Pad bounds slightly so boundary geometry is strictly inside.
  const Vec3 pad = (bounds_.extent() + Vec3{1.0, 1.0, 1.0}) * 1e-6;
  bounds_.lo -= pad;
  bounds_.hi += pad;

  const Vec3 ext = bounds_.extent();
  const double n_boxes = static_cast<double>(set.size());
  const double cells_target = std::max(1.0, n_boxes / target_boxes_per_cell);
  const double vol = std::max(ext.x * ext.y * ext.z, 1e-30);
  const double scale = std::cbrt(cells_target / vol);
  const double* e = &ext.x;
  for (int a = 0; a < 3; ++a) {
    n_[a] = std::clamp(static_cast<int>(std::ceil(e[a] * scale)), 1, 256);
  }
  cell_size_ = {ext.x / n_[0], ext.y / n_[1], ext.z / n_[2]};
  cells_.assign(static_cast<std::size_t>(n_[0]) * static_cast<std::size_t>(n_[1]) *
                    static_cast<std::size_t>(n_[2]),
                {});

  for (std::uint32_t id = 0; id < set.size(); ++id) {
    const Aabb& b = set.box(id);
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
        for (int ix = lo_c[0]; ix <= hi_c[0]; ++ix) {
          cells_[cell_index(ix, iy, iz)].push_back(id);
        }
      }
    }
  }
  stamp_.assign(set.size(), 0);
}

void UniformGrid::query(const Ray& ray, std::vector<BoxHit>& out) {
  FINSER_OBS_COUNT("geom.grid_queries", 1);
  out.clear();
  const SlabRay slab(ray);
  const auto entry = bounds_.intersect(slab);
  if (!entry) return;
  ++epoch_;

  // 3-D DDA setup: walk cells from the entry point.
  const double t_start = std::max(entry->t_in, 0.0);
  const Vec3 p = ray.at(t_start + 1e-12);
  const double* pp = &p.x;
  const double* glo = &bounds_.lo.x;
  const double* ghi = &bounds_.hi.x;
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
  (void)ghi;

  const double t_end = entry->t_out;
  while (true) {
    for (std::uint32_t id : cells_[cell_index(cell[0], cell[1], cell[2])]) {
      if (stamp_[id] == epoch_) continue;
      stamp_[id] = epoch_;
      if (auto iv = set_->box(id).intersect(slab)) {
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
