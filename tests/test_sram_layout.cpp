#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "finser/sram/layout.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {
namespace {

// ---------------------------------------------------------------------------
// Single cell geometry
// ---------------------------------------------------------------------------

TEST(Layout, SingleCellHasSixFins) {
  ArrayLayout layout(1, 1, CellGeometry{});
  EXPECT_EQ(layout.fins().size(), 6u);
  EXPECT_EQ(layout.cell_count(), 1u);
}

TEST(Layout, FinBoxDimensionsMatchGeometry) {
  CellGeometry g;
  ArrayLayout layout(1, 1, g);
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    const auto& box = layout.fins().box(id);
    const auto ext = box.extent();
    EXPECT_DOUBLE_EQ(ext.x, g.fin_w_nm);
    EXPECT_DOUBLE_EQ(ext.y, g.gate_len_nm);
    EXPECT_DOUBLE_EQ(ext.z, g.fin_h_nm);
    EXPECT_DOUBLE_EQ(box.lo.z, 0.0);  // Fins sit on the BOX.
  }
}

TEST(Layout, AllRolesPresentOncePerCell) {
  ArrayLayout layout(1, 1, CellGeometry{});
  std::set<Role> roles;
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    roles.insert(layout.site(id).role);
  }
  EXPECT_EQ(roles.size(), kRoleCount);
}

TEST(Layout, FinsDoNotOverlapWithinCell) {
  ArrayLayout layout(1, 1, CellGeometry{});
  const auto& fins = layout.fins();
  for (std::uint32_t a = 0; a < fins.size(); ++a) {
    for (std::uint32_t b = a + 1; b < fins.size(); ++b) {
      EXPECT_FALSE(fins.box(a).overlaps(fins.box(b))) << a << " vs " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Array tiling
// ---------------------------------------------------------------------------

TEST(Layout, PaperArrayHas486Fins) {
  // 9x9 cells x 6 transistors (single-fin devices).
  ArrayLayout layout(9, 9, CellGeometry{});
  EXPECT_EQ(layout.fins().size(), 486u);
  EXPECT_EQ(layout.cell_count(), 81u);
}

TEST(Layout, FootprintMatchesPitch) {
  CellGeometry g;
  ArrayLayout layout(9, 9, g);
  EXPECT_DOUBLE_EQ(layout.width_nm(), 9.0 * g.cell_w_nm);
  EXPECT_DOUBLE_EQ(layout.height_nm(), 9.0 * g.cell_h_nm);
  const auto b = layout.bounds();
  EXPECT_GE(b.lo.x, 0.0);
  EXPECT_LE(b.hi.x, layout.width_nm());
  EXPECT_GE(b.lo.y, 0.0);
  EXPECT_LE(b.hi.y, layout.height_nm());
}

// Copies and moves of a layout share its one fin index, and the index owns
// its boxes: it keeps answering after the layout it was built by is gone.
TEST(Layout, CopiesAndMovesShareAFinIndexThatOutlivesTheOriginal) {
  auto original = std::make_unique<ArrayLayout>(3, 3, CellGeometry{});
  const ArrayLayout copy = *original;
  const ArrayLayout moved = std::move(*original);
  original.reset();
  EXPECT_EQ(copy.fin_index(), moved.fin_index());
  EXPECT_EQ(&copy.fins(), &copy.fin_index()->set());
  const geom::Aabb& box = copy.fins().box(7);
  const geom::Vec3 c = box.center();
  std::vector<geom::BoxHit> hits;
  copy.fin_index()->query({{c.x, c.y, box.hi.z + 5.0}, {0.0, 0.0, -1.0}},
                          hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 7u);
  EXPECT_EQ(copy.bounds().lo, moved.bounds().lo);
  EXPECT_EQ(copy.bounds().hi, moved.bounds().hi);
}

TEST(Layout, SitesMapBackToCells) {
  ArrayLayout layout(3, 4, CellGeometry{});
  std::set<std::pair<std::uint32_t, std::uint32_t>> cells;
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    const FinSite& s = layout.site(id);
    EXPECT_LT(s.cell_row, 3u);
    EXPECT_LT(s.cell_col, 4u);
    cells.insert({s.cell_row, s.cell_col});
    // Every fin lies inside its cell's bounding rectangle.
    const auto& box = layout.fins().box(id);
    const CellGeometry& g = layout.geometry();
    EXPECT_GE(box.lo.x, s.cell_col * g.cell_w_nm - 1e-9);
    EXPECT_LE(box.hi.x, (s.cell_col + 1) * g.cell_w_nm + 1e-9);
    EXPECT_GE(box.lo.y, s.cell_row * g.cell_h_nm - 1e-9);
    EXPECT_LE(box.hi.y, (s.cell_row + 1) * g.cell_h_nm + 1e-9);
  }
  EXPECT_EQ(cells.size(), 12u);
}

TEST(Layout, MirroringReflectsOddColumns) {
  CellGeometry g;
  ArrayLayout layout(1, 2, g);
  // Find PdL in both cells: odd column is x-mirrored.
  double x0 = -1, x1 = -1;
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    const FinSite& s = layout.site(id);
    if (s.role == Role::kPdL) {
      const double cx = layout.fins().box(id).center().x -
                        s.cell_col * g.cell_w_nm;
      if (s.cell_col == 0) x0 = cx;
      if (s.cell_col == 1) x1 = cx;
    }
  }
  ASSERT_GE(x0, 0.0);
  ASSERT_GE(x1, 0.0);
  EXPECT_NEAR(x1, g.cell_w_nm - x0, 1e-9);
}

TEST(Layout, MirroringReflectsOddRows) {
  CellGeometry g;
  ArrayLayout layout(2, 1, g);
  double y0 = -1, y1 = -1;
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    const FinSite& s = layout.site(id);
    if (s.role == Role::kPdL) {
      const double cy = layout.fins().box(id).center().y -
                        s.cell_row * g.cell_h_nm;
      if (s.cell_row == 0) y0 = cy;
      if (s.cell_row == 1) y1 = cy;
    }
  }
  EXPECT_NEAR(y1, g.cell_h_nm - y0, 1e-9);
}

TEST(Layout, MultiFinDevicesReplicateBoxes) {
  CellGeometry g;
  g.nfin_pd = 2;
  ArrayLayout layout(1, 1, g);
  // 2 PD devices with 2 fins each + 4 single-fin devices = 8 boxes.
  EXPECT_EQ(layout.fins().size(), 8u);
  int pd_fins = 0;
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    const Role r = layout.site(id).role;
    if (r == Role::kPdL || r == Role::kPdR) ++pd_fins;
  }
  EXPECT_EQ(pd_fins, 4);
}

// ---------------------------------------------------------------------------
// Technology kinds (SOI vs bulk)
// ---------------------------------------------------------------------------

TEST(Layout, SoiHasUnitEfficiencyOnly) {
  ArrayLayout layout(2, 2, CellGeometry{});
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    EXPECT_DOUBLE_EQ(layout.collection_efficiency(id), 1.0);
  }
  EXPECT_THROW(layout.collection_efficiency(
                   static_cast<std::uint32_t>(layout.fins().size())),
               util::InvalidArgument);
}

TEST(Layout, BulkAddsTieredCollectionVolumes) {
  CellGeometry g;
  g.technology = TechnologyKind::kBulk;
  ArrayLayout layout(1, 1, g);
  // 6 fins x (1 channel + 3 tiers).
  EXPECT_EQ(layout.fins().size(), 24u);
  int channels = 0, tiers = 0;
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    const auto& box = layout.fins().box(id);
    const double eff = layout.collection_efficiency(id);
    if (box.lo.z >= 0.0) {
      ++channels;
      EXPECT_DOUBLE_EQ(eff, 1.0);
    } else {
      ++tiers;
      EXPECT_GT(eff, 0.0);
      EXPECT_LT(eff, 1.0);
      EXPECT_LE(box.hi.z, 0.0);  // Strictly below the fin base.
    }
  }
  EXPECT_EQ(channels, 6);
  EXPECT_EQ(tiers, 18);
}

TEST(Layout, BulkTiersInheritSiteIdentity) {
  CellGeometry g;
  g.technology = TechnologyKind::kBulk;
  ArrayLayout layout(2, 2, g);
  for (std::uint32_t id = 0; id < layout.fins().size(); ++id) {
    const FinSite& s = layout.site(id);
    EXPECT_LT(s.cell_row, 2u);
    EXPECT_LT(s.cell_col, 2u);
  }
}

TEST(Layout, BulkEfficiencyDecreasesWithDepth) {
  CellGeometry g;
  g.technology = TechnologyKind::kBulk;
  ArrayLayout layout(1, 1, g);
  // For any fin column, tiers deeper in z must not collect more.
  for (std::uint32_t a = 0; a < layout.fins().size(); ++a) {
    for (std::uint32_t b = 0; b < layout.fins().size(); ++b) {
      const auto& ba = layout.fins().box(a);
      const auto& bb = layout.fins().box(b);
      const bool same_column = std::abs(ba.lo.x - bb.lo.x) < 1e-9 &&
                               std::abs(ba.lo.y - bb.lo.y) < 1e-9;
      if (same_column && ba.hi.z <= 0.0 && bb.hi.z <= 0.0 &&
          ba.lo.z < bb.lo.z) {
        EXPECT_LE(layout.collection_efficiency(a),
                  layout.collection_efficiency(b));
      }
    }
  }
}

TEST(Layout, BulkRejectsMalformedTiers) {
  CellGeometry g;
  g.technology = TechnologyKind::kBulk;
  g.bulk_tiers = {{100.0, 50.0, 0.5}};  // Inverted depth range.
  EXPECT_THROW(ArrayLayout(1, 1, g), util::InvalidArgument);
  g.bulk_tiers = {{0.0, 100.0, 1.5}};  // Efficiency > 1.
  EXPECT_THROW(ArrayLayout(1, 1, g), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Data patterns
// ---------------------------------------------------------------------------

TEST(Layout, DataPatterns) {
  ArrayLayout ones(2, 2, CellGeometry{}, DataPattern::kAllOnes);
  ArrayLayout zeros(2, 2, CellGeometry{}, DataPattern::kAllZeros);
  ArrayLayout checker(2, 2, CellGeometry{}, DataPattern::kCheckerboard);
  EXPECT_TRUE(ones.bit(0, 0));
  EXPECT_TRUE(ones.bit(1, 1));
  EXPECT_FALSE(zeros.bit(0, 0));
  EXPECT_TRUE(checker.bit(0, 0));
  EXPECT_FALSE(checker.bit(0, 1));
  EXPECT_FALSE(checker.bit(1, 0));
  EXPECT_TRUE(checker.bit(1, 1));
}

TEST(Layout, RandomPatternIsSeededDeterministically) {
  ArrayLayout a(4, 4, CellGeometry{}, DataPattern::kRandom, 99);
  ArrayLayout b(4, 4, CellGeometry{}, DataPattern::kRandom, 99);
  ArrayLayout c(4, 4, CellGeometry{}, DataPattern::kRandom, 100);
  int diff_ab = 0, diff_ac = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t col = 0; col < 4; ++col) {
      diff_ab += a.bit(r, col) != b.bit(r, col);
      diff_ac += a.bit(r, col) != c.bit(r, col);
    }
  }
  EXPECT_EQ(diff_ab, 0);
  EXPECT_GT(diff_ac, 0);
}

// ---------------------------------------------------------------------------
// Sensitivity mapping (paper Fig. 5a)
// ---------------------------------------------------------------------------

TEST(Layout, StrikeIndexForStoredOne) {
  EXPECT_EQ(ArrayLayout::strike_index(Role::kPdL, true), 0);
  EXPECT_EQ(ArrayLayout::strike_index(Role::kPuR, true), 1);
  EXPECT_EQ(ArrayLayout::strike_index(Role::kPgR, true), 2);
  EXPECT_FALSE(ArrayLayout::strike_index(Role::kPdR, true).has_value());
  EXPECT_FALSE(ArrayLayout::strike_index(Role::kPuL, true).has_value());
  EXPECT_FALSE(ArrayLayout::strike_index(Role::kPgL, true).has_value());
}

TEST(Layout, StrikeIndexForStoredZeroIsMirrored) {
  EXPECT_EQ(ArrayLayout::strike_index(Role::kPdR, false), 0);
  EXPECT_EQ(ArrayLayout::strike_index(Role::kPuL, false), 1);
  EXPECT_EQ(ArrayLayout::strike_index(Role::kPgL, false), 2);
  EXPECT_FALSE(ArrayLayout::strike_index(Role::kPdL, false).has_value());
}

TEST(Layout, ExactlyThreeSensitiveTransistorsPerCell) {
  for (bool bit : {false, true}) {
    int sensitive = 0;
    for (std::size_t r = 0; r < kRoleCount; ++r) {
      if (ArrayLayout::strike_index(static_cast<Role>(r), bit)) ++sensitive;
    }
    EXPECT_EQ(sensitive, 3);
  }
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

TEST(Layout, RejectsDegenerateInputs) {
  EXPECT_THROW(ArrayLayout(0, 3, CellGeometry{}), util::InvalidArgument);
  EXPECT_THROW(ArrayLayout(3, 0, CellGeometry{}), util::InvalidArgument);
  CellGeometry bad;
  bad.fin_w_nm = 0.0;
  EXPECT_THROW(ArrayLayout(1, 1, bad), util::InvalidArgument);
  CellGeometry bad2;
  bad2.nfin_pu = 0;
  EXPECT_THROW(ArrayLayout(1, 1, bad2), util::InvalidArgument);
}

TEST(Layout, SiteOutOfRangeThrows) {
  ArrayLayout layout(1, 1, CellGeometry{});
  EXPECT_THROW(layout.site(6), util::InvalidArgument);
  EXPECT_THROW(layout.bit(1, 0), util::InvalidArgument);
}

}  // namespace
}  // namespace finser::sram
