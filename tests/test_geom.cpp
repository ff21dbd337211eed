#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "finser/geom/aabb.hpp"
#include "finser/geom/box_set.hpp"
#include "finser/geom/vec3.hpp"
#include "finser/stats/direction.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/error.hpp"

namespace finser::geom {
namespace {

// ---------------------------------------------------------------------------
// Vec3
// ---------------------------------------------------------------------------

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(2.0 * a, (Vec3{2, 4, 6}));
  EXPECT_EQ(a / 2.0, (Vec3{0.5, 1, 1.5}));
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
}

TEST(Vec3, DotAndCross) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_EQ(a.cross(b), (Vec3{-3, 6, -3}));
  const Vec3 x{1, 0, 0}, y{0, 1, 0};
  EXPECT_EQ(x.cross(y), (Vec3{0, 0, 1}));
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 25.0);
  const Vec3 u = v.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-15);
  EXPECT_NEAR(u.x, 0.6, 1e-15);
}

TEST(Vec3, CompoundAssignment) {
  Vec3 v{1, 1, 1};
  v += {1, 2, 3};
  EXPECT_EQ(v, (Vec3{2, 3, 4}));
  v -= {1, 1, 1};
  EXPECT_EQ(v, (Vec3{1, 2, 3}));
  v *= 3.0;
  EXPECT_EQ(v, (Vec3{3, 6, 9}));
}

TEST(Ray, PointAt) {
  const Ray r{{1, 0, 0}, {0, 0, -1}};
  EXPECT_EQ(r.at(2.0), (Vec3{1, 0, -2}));
}

// ---------------------------------------------------------------------------
// Aabb
// ---------------------------------------------------------------------------

TEST(Aabb, BasicProperties) {
  const Aabb b{{0, 0, 0}, {2, 4, 6}};
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.center(), (Vec3{1, 2, 3}));
  EXPECT_EQ(b.extent(), (Vec3{2, 4, 6}));
  EXPECT_DOUBLE_EQ(b.volume(), 48.0);
}

TEST(Aabb, Contains) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(b.contains({0.5, 0.5, 0.5}));
  EXPECT_TRUE(b.contains({0, 0, 0}));      // Boundary inclusive.
  EXPECT_TRUE(b.contains({1, 1, 1}));
  EXPECT_FALSE(b.contains({1.001, 0.5, 0.5}));
}

TEST(Aabb, Overlaps) {
  const Aabb a{{0, 0, 0}, {2, 2, 2}};
  EXPECT_TRUE(a.overlaps({{1, 1, 1}, {3, 3, 3}}));
  EXPECT_TRUE(a.overlaps({{2, 0, 0}, {3, 1, 1}}));  // Touching counts.
  EXPECT_FALSE(a.overlaps({{2.1, 0, 0}, {3, 1, 1}}));
}

TEST(Aabb, Expand) {
  Aabb a{{0, 0, 0}, {1, 1, 1}};
  a.expand({{-1, 0.5, 0.5}, {0.5, 2, 0.7}});
  EXPECT_EQ(a.lo, (Vec3{-1, 0, 0}));
  EXPECT_EQ(a.hi, (Vec3{1, 2, 1}));
}

TEST(AabbIntersect, AxisAlignedHit) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  const Ray r{{0.5, 0.5, 2.0}, {0, 0, -1}};
  const auto iv = b.intersect(r);
  ASSERT_TRUE(iv.has_value());
  EXPECT_NEAR(iv->t_in, 1.0, 1e-12);
  EXPECT_NEAR(iv->t_out, 2.0, 1e-12);
  EXPECT_NEAR(iv->length(), 1.0, 1e-12);
}

TEST(AabbIntersect, Miss) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  EXPECT_FALSE(b.intersect({{2, 2, 2}, {0, 0, -1}}).has_value());
  EXPECT_FALSE(b.intersect({{0.5, 0.5, 2.0}, {0, 0, 1}}).has_value());  // Away.
}

TEST(AabbIntersect, OriginInside) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  const auto iv = b.intersect({{0.5, 0.5, 0.5}, {1, 0, 0}});
  ASSERT_TRUE(iv.has_value());
  EXPECT_DOUBLE_EQ(iv->t_in, 0.0);
  EXPECT_NEAR(iv->t_out, 0.5, 1e-12);
}

TEST(AabbIntersect, BoxBehindOrigin) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  EXPECT_FALSE(b.intersect({{0.5, 0.5, 3.0}, {0, 0, 1}}).has_value());
}

TEST(AabbIntersect, DiagonalThroughCorners) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  const Vec3 dir = Vec3{1, 1, 1}.normalized();
  const auto iv = b.intersect({{-1, -1, -1}, dir});
  ASSERT_TRUE(iv.has_value());
  EXPECT_NEAR(iv->length(), std::sqrt(3.0), 1e-9);
}

TEST(AabbIntersect, ParallelRayInsideSlab) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  // Parallel to x-axis at y, z inside.
  const auto iv = b.intersect({{-2, 0.5, 0.5}, {1, 0, 0}});
  ASSERT_TRUE(iv.has_value());
  EXPECT_NEAR(iv->length(), 1.0, 1e-12);
  // Parallel but outside the slab.
  EXPECT_FALSE(b.intersect({{-2, 2.0, 0.5}, {1, 0, 0}}).has_value());
}

TEST(AabbIntersect, GrazingEdgeReportsZeroLength) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  const auto iv = b.intersect({{0.0, -1.0, 0.5}, {0, 1, 0}});
  ASSERT_TRUE(iv.has_value());
  EXPECT_GE(iv->length(), 0.0);
}

TEST(AabbIntersect, RespectsTmin) {
  const Aabb b{{0, 0, 0}, {1, 1, 1}};
  const Ray r{{0.5, 0.5, 2.0}, {0, 0, -1}};
  const auto iv = b.intersect(r, 1.5);
  ASSERT_TRUE(iv.has_value());
  EXPECT_DOUBLE_EQ(iv->t_in, 1.5);
}

// ---------------------------------------------------------------------------
// BoxSet + UniformGrid
// ---------------------------------------------------------------------------

TEST(BoxSet, AddAndBounds) {
  BoxSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_THROW(set.bounds(), util::InvalidArgument);
  const auto id0 = set.add({{0, 0, 0}, {1, 1, 1}});
  const auto id1 = set.add({{5, 5, 5}, {6, 7, 8}});
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  const Aabb b = set.bounds();
  EXPECT_EQ(b.lo, (Vec3{0, 0, 0}));
  EXPECT_EQ(b.hi, (Vec3{6, 7, 8}));
}

TEST(BoxSet, RejectsInvalidBox) {
  BoxSet set;
  EXPECT_THROW(set.add({{1, 0, 0}, {0, 1, 1}}), util::InvalidArgument);
}

TEST(BoxSet, QuerySortedByEntry) {
  BoxSet set;
  set.add({{0, 0, 4}, {1, 1, 5}});   // Further along -z ray.
  set.add({{0, 0, 8}, {1, 1, 9}});   // Nearer.
  std::vector<BoxHit> hits;
  set.query({{0.5, 0.5, 10.0}, {0, 0, -1}}, hits);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 0u);
  EXPECT_LT(hits[0].interval.t_in, hits[1].interval.t_in);
}

TEST(UniformGrid, MatchesBruteForceOnRandomScenes) {
  stats::Rng rng(1234);
  for (int scene = 0; scene < 5; ++scene) {
    BoxSet set;
    for (int i = 0; i < 60; ++i) {
      const Vec3 lo{rng.uniform(0, 900), rng.uniform(0, 400), rng.uniform(0, 30)};
      const Vec3 sz{rng.uniform(5, 30), rng.uniform(5, 30), rng.uniform(5, 30)};
      set.add({lo, lo + sz});
    }
    UniformGrid grid(set);
    std::vector<BoxHit> brute, accel;
    for (int q = 0; q < 300; ++q) {
      Ray ray;
      ray.origin = {rng.uniform(-50, 1000), rng.uniform(-50, 450),
                    rng.uniform(40, 80)};
      ray.dir = stats::isotropic_hemisphere_down(rng);
      if (ray.dir.z == 0.0) continue;
      set.query(ray, brute);
      grid.query(ray, accel);
      ASSERT_EQ(brute.size(), accel.size()) << "scene " << scene << " query " << q;
      for (std::size_t i = 0; i < brute.size(); ++i) {
        EXPECT_EQ(brute[i].id, accel[i].id);
        EXPECT_NEAR(brute[i].interval.t_in, accel[i].interval.t_in, 1e-9);
        EXPECT_NEAR(brute[i].interval.t_out, accel[i].interval.t_out, 1e-9);
      }
    }
  }
}

// The footprint table may only ever prove misses. Scenes mix touching
// boxes, zero-thickness boxes and boxes at several z levels (a fin with
// bulk collection tiers below it). Every rectangle footprint_empty()
// calls empty must overlap no box's closed x-y footprint, and one that
// touches a box edge is never empty. On slab-shaped scenes lit from above,
// query() must still return BoxSet::query()'s hits, and every ray that the
// segment or reach test rejects must cross no box.
TEST(UniformGrid, FootprintTestNeverRejectsAHit) {
  stats::Rng rng(20141031);
  const auto overlaps = [](const Aabb& b, double x_lo, double x_hi,
                           double y_lo, double y_hi) {
    return b.lo.x <= x_hi && b.hi.x >= x_lo && b.lo.y <= y_hi &&
           b.hi.y >= y_lo;
  };
  std::size_t empty_rects = 0;
  for (int scene = 0; scene < 6; ++scene) {
    BoxSet set;
    for (int i = 0; i < 40; ++i) {
      const Vec3 lo{rng.uniform(0, 600), rng.uniform(0, 300),
                    rng.uniform(0, 20)};
      Vec3 size{rng.uniform(2, 40), rng.uniform(2, 40), rng.uniform(2, 30)};
      if (i % 7 == 0) size.x = 0.0;
      if (i % 11 == 0) size.y = 0.0;
      set.add({lo, lo + size});
      if (i % 5 == 0) {
        set.add({{lo.x + size.x, lo.y, lo.z},
                 {lo.x + size.x + 10.0, lo.y + size.y, lo.z + size.z}});
        set.add({{lo.x, lo.y, -300.0}, {lo.x + size.x, lo.y + size.y, -100.0}});
      }
    }
    const UniformGrid grid(set);
    for (int q = 0; q < 4000; ++q) {
      const double x_lo = rng.uniform(-100, 700);
      const double y_lo = rng.uniform(-100, 400);
      const double x_hi = x_lo + rng.uniform(0, 30);
      const double y_hi = y_lo + rng.uniform(0, 30);
      if (!grid.footprint_empty(x_lo, x_hi, y_lo, y_hi)) continue;
      ++empty_rects;
      for (const Aabb& b : set.boxes()) {
        ASSERT_FALSE(overlaps(b, x_lo, x_hi, y_lo, y_hi))
            << "scene " << scene << ": [" << x_lo << ", " << x_hi << "] x ["
            << y_lo << ", " << y_hi << "] overlaps a footprint";
      }
    }
    for (const Aabb& b : set.boxes()) {
      const double w = rng.uniform(0, 30);
      EXPECT_FALSE(grid.footprint_empty(b.lo.x - w, b.lo.x, b.lo.y, b.hi.y));
      EXPECT_FALSE(grid.footprint_empty(b.hi.x, b.hi.x + w, b.lo.y, b.hi.y));
      EXPECT_FALSE(grid.footprint_empty(b.lo.x, b.hi.x, b.lo.y - w, b.lo.y));
      EXPECT_FALSE(grid.footprint_empty(b.lo.x, b.hi.x, b.hi.y, b.hi.y + w));
    }
  }
  EXPECT_GT(empty_rects, 1000u);

  std::size_t segment_rejects = 0;
  std::size_t reach_rejects = 0;
  for (int scene = 0; scene < 4; ++scene) {
    // Fin-like boxes in one thin slab, half of them with a tier below.
    BoxSet set;
    for (int i = 0; i < 80; ++i) {
      const Vec3 lo{rng.uniform(0, 1500), rng.uniform(0, 600), 0.0};
      const Vec3 hi = lo + Vec3{10.0, 20.0, 26.0};
      set.add({lo, hi});
      if (scene % 2 == 1) set.add({{lo.x, lo.y, -100.0}, {hi.x, hi.y, 0.0}});
    }
    const UniformGrid grid(set);
    const double z_bottom = set.bounds().lo.z;
    std::vector<BoxHit> brute, fast;
    for (int q = 0; q < 3000; ++q) {
      Ray ray;
      ray.origin = {rng.uniform(-400, 1900), rng.uniform(-400, 1000),
                    rng.uniform(27, 60)};
      const stats::PolarDirection polar =
          stats::draw_isotropic_hemisphere_down(rng);
      ray.dir = stats::direction(polar);
      if (ray.dir.z == 0.0) continue;
      set.query(ray, brute);
      grid.query(ray, fast);
      // Overlapping boxes can tie on t_in; order ties by id on both sides.
      for (std::vector<BoxHit>* hits : {&brute, &fast}) {
        std::sort(hits->begin(), hits->end(),
                  [](const BoxHit& a, const BoxHit& b) {
                    return a.interval.t_in != b.interval.t_in
                               ? a.interval.t_in < b.interval.t_in
                               : a.id < b.id;
                  });
      }
      ASSERT_EQ(brute.size(), fast.size()) << "scene " << scene << " ray " << q;
      for (std::size_t i = 0; i < brute.size(); ++i) {
        EXPECT_EQ(brute[i].id, fast[i].id);
        EXPECT_EQ(brute[i].interval.t_in, fast[i].interval.t_in);
        EXPECT_EQ(brute[i].interval.t_out, fast[i].interval.t_out);
      }
      if (grid.segment_misses(ray)) {
        ++segment_rejects;
        EXPECT_TRUE(brute.empty()) << "scene " << scene << " ray " << q;
      }
      const stats::LateralRun run = stats::lateral_run(polar);
      const double depth = ray.origin.z - z_bottom;
      if (grid.reach_empty(ray.origin.x, ray.origin.y, depth * run.x,
                           depth * run.y)) {
        ++reach_rejects;
        EXPECT_TRUE(brute.empty()) << "scene " << scene << " ray " << q;
      }
    }
  }
  EXPECT_GT(segment_rejects, 500u);
  EXPECT_GT(reach_rejects, 500u);
}

TEST(UniformGrid, HandlesAxisAlignedRays) {
  BoxSet set;
  set.add({{0, 0, 0}, {10, 10, 10}});
  set.add({{20, 0, 0}, {30, 10, 10}});
  UniformGrid grid(set);
  std::vector<BoxHit> hits;
  grid.query({{-5, 5, 5}, {1, 0, 0}}, hits);
  EXPECT_EQ(hits.size(), 2u);
  grid.query({{5, 5, 50}, {0, 0, -1}}, hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
}

TEST(UniformGrid, EmptySetThrows) {
  BoxSet set;
  EXPECT_THROW(UniformGrid grid(set), util::InvalidArgument);
}

TEST(UniformGrid, RepeatQueriesAreConsistent) {
  BoxSet set;
  set.add({{0, 0, 0}, {1, 1, 1}});
  UniformGrid grid(set);
  std::vector<BoxHit> h1, h2;
  const Ray r{{0.5, 0.5, 5}, {0, 0, -1}};
  grid.query(r, h1);
  grid.query(r, h2);  // One query's hits must not suppress the next one's.
  EXPECT_EQ(h1.size(), 1u);
  EXPECT_EQ(h2.size(), 1u);
}

}  // namespace
}  // namespace finser::geom
