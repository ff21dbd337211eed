/// \file test_grid_fuzz.cpp
/// \brief Fuzz-equivalence of the two ray-query paths: UniformGrid (3-D DDA
/// accelerator) versus BoxSet (brute-force reference) over ~10k random rays
/// through the paper's 9×9 array layout, plus the degenerate families the
/// DDA is most likely to get wrong — axis-aligned directions and rays that
/// start inside a box.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "finser/geom/box_set.hpp"
#include "finser/sram/layout.hpp"
#include "finser/stats/direction.hpp"
#include "finser/stats/rng.hpp"

namespace finser::geom {
namespace {

/// Sorted, canonical form of a hit list for exact set comparison. Hits are
/// sorted by t_in with id as tiebreaker (BoxSet::query only sorts by t_in,
/// so equal-t orderings are normalized away).
std::vector<BoxHit> canonical(std::vector<BoxHit> hits) {
  std::sort(hits.begin(), hits.end(), [](const BoxHit& a, const BoxHit& b) {
    if (a.interval.t_in != b.interval.t_in) {
      return a.interval.t_in < b.interval.t_in;
    }
    return a.id < b.id;
  });
  return hits;
}

std::string describe(const Ray& ray) {
  std::ostringstream os;
  os << "ray origin=(" << ray.origin.x << ", " << ray.origin.y << ", "
     << ray.origin.z << ") dir=(" << ray.dir.x << ", " << ray.dir.y << ", "
     << ray.dir.z << ")";
  return os.str();
}

/// Exact equivalence check of the two query paths for one ray.
void expect_equivalent(const BoxSet& set, UniformGrid& grid, const Ray& ray) {
  std::vector<BoxHit> brute, fast;
  set.query(ray, brute);
  grid.query(ray, fast);
  const std::vector<BoxHit> b = canonical(std::move(brute));
  const std::vector<BoxHit> f = canonical(std::move(fast));

  ASSERT_EQ(b.size(), f.size()) << describe(ray);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i].id, f[i].id) << describe(ray) << " hit " << i;
    // Identical box + identical ray → identical slab arithmetic; both
    // paths run the one slab kernel, Aabb::intersect(const SlabRay&), on a
    // reciprocal direction computed once per ray, so the intervals must
    // match exactly.
    EXPECT_EQ(b[i].interval.t_in, f[i].interval.t_in) << describe(ray);
    EXPECT_EQ(b[i].interval.t_out, f[i].interval.t_out) << describe(ray);
  }
}

class GridFuzz : public ::testing::Test {
 protected:
  GridFuzz() : layout_(9, 9, sram::CellGeometry{}), grid_(layout_.fins()) {}

  const BoxSet& set() const { return layout_.fins(); }
  Aabb bounds() const { return layout_.fins().bounds(); }

  sram::ArrayLayout layout_;
  UniformGrid grid_;
};

TEST_F(GridFuzz, RandomRaysThroughPaperLayout) {
  stats::Rng rng(20140601);
  const Aabb b = bounds();
  const Vec3 ext = b.extent();
  // Sample origins in an inflated shell around the layout so rays enter
  // from every side, plus a fraction straight inside.
  for (int i = 0; i < 10000; ++i) {
    Ray ray;
    ray.origin = {b.lo.x + ext.x * rng.uniform(-0.5, 1.5),
                  b.lo.y + ext.y * rng.uniform(-0.5, 1.5),
                  b.lo.z + ext.z * rng.uniform(-0.5, 1.5)};
    ray.dir = stats::isotropic_sphere(rng);
    expect_equivalent(set(), grid_, ray);
  }
}

TEST_F(GridFuzz, AxisAlignedDegenerateDirections) {
  stats::Rng rng(42);
  const Aabb b = bounds();
  const Vec3 ext = b.extent();
  const Vec3 axes[6] = {{1, 0, 0}, {-1, 0, 0}, {0, 1, 0},
                        {0, -1, 0}, {0, 0, 1}, {0, 0, -1}};
  for (int i = 0; i < 600; ++i) {
    Ray ray;
    ray.origin = {b.lo.x + ext.x * rng.uniform(-0.25, 1.25),
                  b.lo.y + ext.y * rng.uniform(-0.25, 1.25),
                  b.lo.z + ext.z * rng.uniform(-0.25, 1.25)};
    ray.dir = axes[i % 6];
    expect_equivalent(set(), grid_, ray);
  }
  // Two-component zeros as well (diagonals in a coordinate plane).
  for (int i = 0; i < 600; ++i) {
    Ray ray;
    ray.origin = {b.lo.x + ext.x * rng.uniform(-0.25, 1.25),
                  b.lo.y + ext.y * rng.uniform(-0.25, 1.25),
                  b.lo.z + ext.z * rng.uniform(-0.25, 1.25)};
    const double s = rng.uniform() < 0.5 ? 1.0 : -1.0;
    const double t = rng.uniform() < 0.5 ? 1.0 : -1.0;
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    switch (i % 3) {
      case 0: ray.dir = {s * inv_sqrt2, t * inv_sqrt2, 0.0}; break;
      case 1: ray.dir = {s * inv_sqrt2, 0.0, t * inv_sqrt2}; break;
      default: ray.dir = {0.0, s * inv_sqrt2, t * inv_sqrt2}; break;
    }
    expect_equivalent(set(), grid_, ray);
  }
}

TEST_F(GridFuzz, RaysStartingInsideBoxes) {
  stats::Rng rng(7);
  const BoxSet& boxes = set();
  for (int i = 0; i < 2000; ++i) {
    const auto id =
        static_cast<std::uint32_t>(rng.uniform_index(boxes.size()));
    const Aabb& box = boxes.box(id);
    const Vec3 ext = box.extent();
    Ray ray;
    ray.origin = {box.lo.x + ext.x * rng.uniform(),
                  box.lo.y + ext.y * rng.uniform(),
                  box.lo.z + ext.z * rng.uniform()};
    ray.dir = stats::isotropic_sphere(rng);
    expect_equivalent(set(), grid_, ray);

    std::vector<BoxHit> hits;
    boxes.query(ray, hits);
    const bool found = std::any_of(
        hits.begin(), hits.end(),
        [&](const BoxHit& h) { return h.id == id; });
    EXPECT_TRUE(found) << "containing box missing from hits: " << describe(ray);
  }
}

TEST_F(GridFuzz, GrazingRaysAlongBoxFaces) {
  // Rays sliding exactly on a face plane are the classic accelerator
  // divergence: whatever the brute-force slab test says, the grid must say
  // the same thing.
  stats::Rng rng(13);
  const BoxSet& boxes = set();
  for (int i = 0; i < 1000; ++i) {
    const auto id =
        static_cast<std::uint32_t>(rng.uniform_index(boxes.size()));
    const Aabb& box = boxes.box(id);
    Ray ray;
    // Start on the +x face plane, shoot along ±y.
    ray.origin = {box.hi.x,
                  box.lo.y + box.extent().y * rng.uniform(-0.5, 1.5),
                  box.lo.z + box.extent().z * rng.uniform()};
    ray.dir = {0.0, rng.uniform() < 0.5 ? 1.0 : -1.0, 0.0};
    expect_equivalent(set(), grid_, ray);
  }
}

}  // namespace
}  // namespace finser::geom
