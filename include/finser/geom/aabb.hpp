#pragma once
/// \file aabb.hpp
/// \brief Axis-aligned bounding boxes and ray-box intersection.
///
/// Fins, gates and well regions in the SRAM layout are modeled as AABBs
/// (fins are literally rectangular boxes in SOI FinFET technology, paper
/// Fig. 3a), so the "which fins does this particle track cross, and with
/// what path length" query reduces to exact slab-method ray-box clipping.
/// One slab kernel does that clipping for every caller: it takes the ray's
/// reciprocal direction precomputed (SlabRay), so a query that tests many
/// boxes against one ray divides once per axis, not once per box.

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "finser/geom/vec3.hpp"

namespace finser::geom {

/// A ray with its per-axis reciprocal direction, computed once for all the
/// slab tests along it. An axis with dir == 0 takes the parallel-slab branch
/// of the kernel and never reads its (infinite) reciprocal.
struct SlabRay {
  Vec3 origin;
  Vec3 dir;
  Vec3 inv_dir;

  explicit SlabRay(const Ray& ray)
      : origin(ray.origin),
        dir(ray.dir),
        inv_dir{1.0 / ray.dir.x, 1.0 / ray.dir.y, 1.0 / ray.dir.z} {}
};

/// Parametric ray-box overlap: the ray is inside the box for t in [t_in, t_out].
struct RayInterval {
  double t_in = 0.0;
  double t_out = 0.0;

  double length() const { return t_out - t_in; }
};

/// Axis-aligned box [lo, hi] (all coordinates in nm).
struct Aabb {
  Vec3 lo;
  Vec3 hi;

  /// True when the box has non-negative extent on all axes.
  bool valid() const { return lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z; }

  Vec3 center() const { return (lo + hi) * 0.5; }
  Vec3 extent() const { return hi - lo; }
  double volume() const {
    const Vec3 e = extent();
    return e.x * e.y * e.z;
  }

  bool contains(const Vec3& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y && p.z >= lo.z &&
           p.z <= hi.z;
  }

  bool overlaps(const Aabb& o) const {
    return lo.x <= o.hi.x && hi.x >= o.lo.x && lo.y <= o.hi.y && hi.y >= o.lo.y &&
           lo.z <= o.hi.z && hi.z >= o.lo.z;
  }

  /// Grow to include \p o.
  void expand(const Aabb& o);

  /// Slab-method intersection with a ray for t >= \p t_min.
  /// Returns the clipped [t_in, t_out] interval, or nullopt on a miss.
  /// Grazing hits (t_in == t_out) are reported as hits with zero length.
  std::optional<RayInterval> intersect(const Ray& ray, double t_min = 0.0) const {
    return intersect(SlabRay(ray), t_min);
  }

  /// The slab kernel behind every ray-box test: the same contract, with
  /// the ray's reciprocal direction precomputed.
  std::optional<RayInterval> intersect(const SlabRay& ray,
                                       double t_min = 0.0) const {
    double t0 = t_min;
    double t1 = std::numeric_limits<double>::infinity();

    const double* o = &ray.origin.x;
    const double* d = &ray.dir.x;
    const double* inv = &ray.inv_dir.x;
    const double* blo = &lo.x;
    const double* bhi = &hi.x;

    for (int axis = 0; axis < 3; ++axis) {
      if (d[axis] == 0.0) {
        // Ray parallel to this slab: miss unless origin lies within it.
        if (o[axis] < blo[axis] || o[axis] > bhi[axis]) return std::nullopt;
        continue;
      }
      double ta = (blo[axis] - o[axis]) * inv[axis];
      double tb = (bhi[axis] - o[axis]) * inv[axis];
      if (ta > tb) std::swap(ta, tb);
      t0 = std::max(t0, ta);
      t1 = std::min(t1, tb);
      if (t0 > t1) return std::nullopt;
    }
    return RayInterval{t0, t1};
  }
};

}  // namespace finser::geom
