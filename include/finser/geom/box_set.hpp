#pragma once
/// \file box_set.hpp
/// \brief Collections of labeled AABBs with ray queries.
///
/// An SRAM array layout becomes a BoxSet of fin boxes (hundreds to a few
/// thousand). Array-level Monte Carlo shoots millions of rays at it, so a
/// 3-D DDA uniform-grid accelerator is provided next to the brute-force
/// reference implementation (the two are property-tested to be equivalent).
/// Most of those rays cross no box at all; the grid's footprint table
/// proves such misses in O(1) (docs/physics.md §5.1).

#include <cstdint>
#include <vector>

#include "finser/geom/aabb.hpp"

namespace finser::geom {

/// One ray-box crossing: which box, and the parametric [t_in, t_out].
struct BoxHit {
  std::uint32_t id = 0;
  RayInterval interval;
};

/// A flat set of boxes identified by dense ids (insertion order).
class BoxSet {
 public:
  /// Add a box; returns its id. The box must be valid().
  std::uint32_t add(const Aabb& box);

  std::size_t size() const { return boxes_.size(); }
  bool empty() const { return boxes_.empty(); }
  const Aabb& box(std::uint32_t id) const { return boxes_[id]; }
  const std::vector<Aabb>& boxes() const { return boxes_; }

  /// Bounding box of the whole set (throws if empty).
  Aabb bounds() const;

  /// Brute-force query: all boxes crossed by \p ray (t >= 0), sorted by t_in.
  void query(const Ray& ray, std::vector<BoxHit>& out) const;

 private:
  std::vector<Aabb> boxes_;
};

/// Uniform-grid (3-D DDA) ray-query accelerator over a BoxSet it keeps a
/// copy of. The grid is immutable once built, so one instance serves every
/// thread at once: a query writes only the caller's output vector.
///
/// Next to the cells the grid keeps a footprint table: a summed-area table
/// over an x-y raster of kFootprintCellNm cells, counting the cells that
/// some box's x-y footprint touches. Footprints and queries map coordinates
/// to raster cells through one monotone function, so a rectangle that
/// overlaps a footprint always shares a cell with it, and an empty count
/// proves a miss. query() uses it to reject a ray whose x-y segment inside
/// the grid touches no footprint before it walks the grid.
class UniformGrid {
 public:
  /// Edge of a footprint raster cell [nm], unless the raster would then
  /// exceed kFootprintMaxCells cells (the table's counts are 16 bits); a
  /// larger layout gets wider cells.
  static constexpr double kFootprintCellNm = 20.0;
  static constexpr double kFootprintMaxCells = 65535.0;

  /// Build over a copy of \p set.
  /// \param target_boxes_per_cell controls grid resolution (default 4).
  explicit UniformGrid(BoxSet set, double target_boxes_per_cell = 4.0);

  /// Same contract as BoxSet::query, but accelerated.
  void query(const Ray& ray, std::vector<BoxHit>& out) const;

  /// True when no box's x-y footprint touches the closed rectangle
  /// [x_lo, x_hi] × [y_lo, y_hi]; never true when one does. A rectangle
  /// with a NaN bound is never empty.
  bool footprint_empty(double x_lo, double x_hi, double y_lo,
                       double y_hi) const;

  /// footprint_empty() of the rectangle between (x, y) and (x + dx,
  /// y + dy), padded for rounding: true only if a ray from (x, y) whose x-y
  /// displacement, until it leaves the boxes' z range, lies between 0 and
  /// dx on x and between 0 and dy on y crosses no box.
  bool reach_empty(double x, double y, double dx, double dy) const;

  /// True when the x-y segment of \p ray inside the grid's bounds touches
  /// no footprint, so query() returns no hit without walking the grid.
  bool segment_misses(const Ray& ray) const;

  const BoxSet& set() const { return set_; }

  /// Grid resolution per axis (for diagnostics).
  int nx() const { return n_[0]; }
  int ny() const { return n_[1]; }
  int nz() const { return n_[2]; }

 private:
  std::size_t cell_index(int ix, int iy, int iz) const {
    return (static_cast<std::size_t>(iz) * static_cast<std::size_t>(n_[1]) +
            static_cast<std::size_t>(iy)) *
               static_cast<std::size_t>(n_[0]) +
           static_cast<std::size_t>(ix);
  }

  /// segment_misses() for the bounds' parametric entry/exit [t_in, t_out].
  bool segment_misses(const Ray& ray, const RayInterval& entry) const;

  /// The footprint raster's cell of coordinate \p v on axis \p a (0 = x,
  /// 1 = y): the one monotone map of footprints and queries.
  int raster_cell(int a, double v) const;

  BoxSet set_;
  Aabb bounds_;
  int n_[3] = {1, 1, 1};
  Vec3 cell_size_;
  /// Cell c's box ids are cell_boxes_[cell_start_[c], cell_start_[c + 1]).
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_boxes_;

  // Footprint table: the x-y rectangle every footprint lies in (its low
  // corner is the raster's origin), the inverse cell size and cell count per
  // axis (x, y), and the summed-area table, (nx + 1) × (ny + 1) row-major,
  // of the touched cells.
  double foot_lo_[2] = {0.0, 0.0};
  double foot_hi_[2] = {0.0, 0.0};
  double raster_inv_[2] = {1.0, 1.0};
  int raster_n_[2] = {1, 1};
  /// Rounding scale of segment_misses(): the largest coordinate magnitude
  /// of the grid bounds, plus one.
  double scale_ = 1.0;
  std::vector<std::uint16_t> footprint_sat_;
};

}  // namespace finser::geom
