#include "finser/sram/layout.hpp"

#include <utility>

#include "finser/stats/rng.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {

ArrayLayout::ArrayLayout(std::size_t rows, std::size_t cols,
                         const CellGeometry& geometry, DataPattern pattern,
                         std::uint64_t pattern_seed)
    : rows_(rows), cols_(cols), geometry_(geometry), pattern_(pattern),
      pattern_seed_(pattern_seed) {
  FINSER_REQUIRE(rows > 0 && cols > 0, "ArrayLayout: empty array");
  FINSER_REQUIRE(geometry.fin_w_nm > 0 && geometry.fin_h_nm > 0 &&
                     geometry.gate_len_nm > 0,
                 "ArrayLayout: non-positive fin dimensions");
  FINSER_REQUIRE(geometry.nfin_pd >= 1 && geometry.nfin_pg >= 1 &&
                     geometry.nfin_pu >= 1,
                 "ArrayLayout: fin counts must be >= 1");
  build();
}

const FinSite& ArrayLayout::site(std::uint32_t fin_id) const {
  FINSER_REQUIRE(fin_id < sites_.size(), "ArrayLayout::site: id out of range");
  return sites_[fin_id];
}

double ArrayLayout::collection_efficiency(std::uint32_t fin_id) const {
  FINSER_REQUIRE(fin_id < efficiency_.size(),
                 "ArrayLayout::collection_efficiency: id out of range");
  return efficiency_[fin_id];
}

bool ArrayLayout::bit(std::size_t row, std::size_t col) const {
  FINSER_REQUIRE(row < rows_ && col < cols_, "ArrayLayout::bit: out of range");
  return bits_[row * cols_ + col] != 0;
}

std::optional<int> ArrayLayout::strike_index(Role role, bool bit) {
  // Bit = 1 means Q = 1/QB = 0 (the paper's Fig. 5a orientation):
  // sensitive are the OFF pull-down at Q, OFF pull-up at QB, OFF pass at QB.
  // Bit = 0 is the mirror image.
  if (bit) {
    switch (role) {
      case Role::kPdL: return 0;  // I1
      case Role::kPuR: return 1;  // I2
      case Role::kPgR: return 2;  // I3
      default: return std::nullopt;
    }
  }
  switch (role) {
    case Role::kPdR: return 0;
    case Role::kPuL: return 1;
    case Role::kPgL: return 2;
    default: return std::nullopt;
  }
}

void ArrayLayout::build() {
  // Stored bits.
  bits_.resize(rows_ * cols_);
  stats::Rng rng(pattern_seed_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      bool b = true;
      switch (pattern_) {
        case DataPattern::kAllOnes: b = true; break;
        case DataPattern::kAllZeros: b = false; break;
        case DataPattern::kCheckerboard: b = ((r + c) % 2) == 0; break;
        case DataPattern::kRandom: b = rng.bernoulli(0.5); break;
      }
      bits_[r * cols_ + c] = b ? 1 : 0;
    }
  }

  // Transistor channel sites in cell-local coordinates.
  struct LocalSite {
    Role role;
    double x, y;
    int nfin;
  };
  const LocalSite locals[kRoleCount] = {
      {Role::kPdL, geometry_.x_nfin_left_nm, geometry_.y_poly_a_nm, geometry_.nfin_pd},
      {Role::kPuL, geometry_.x_pfin_left_nm, geometry_.y_poly_a_nm, geometry_.nfin_pu},
      {Role::kPgR, geometry_.x_nfin_right_nm, geometry_.y_poly_a_nm, geometry_.nfin_pg},
      {Role::kPgL, geometry_.x_nfin_left_nm, geometry_.y_poly_b_nm, geometry_.nfin_pg},
      {Role::kPuR, geometry_.x_pfin_right_nm, geometry_.y_poly_b_nm, geometry_.nfin_pu},
      {Role::kPdR, geometry_.x_nfin_right_nm, geometry_.y_poly_b_nm, geometry_.nfin_pd},
  };

  geom::BoxSet fins;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const bool mirror_x = (c % 2) == 1;
      const bool mirror_y = (r % 2) == 1;
      const double ox = static_cast<double>(c) * geometry_.cell_w_nm;
      const double oy = static_cast<double>(r) * geometry_.cell_h_nm;

      for (const LocalSite& ls : locals) {
        for (int f = 0; f < ls.nfin; ++f) {
          // Extra fins of a multi-fin device spread symmetrically in x.
          const double spread =
              (static_cast<double>(f) - 0.5 * static_cast<double>(ls.nfin - 1)) *
              geometry_.fin_pitch_nm;
          double lx = ls.x + spread;
          double ly = ls.y;
          if (mirror_x) lx = geometry_.cell_w_nm - lx;
          if (mirror_y) ly = geometry_.cell_h_nm - ly;

          geom::Aabb box;
          box.lo = {ox + lx - 0.5 * geometry_.fin_w_nm,
                    oy + ly - 0.5 * geometry_.gate_len_nm, 0.0};
          box.hi = {ox + lx + 0.5 * geometry_.fin_w_nm,
                    oy + ly + 0.5 * geometry_.gate_len_nm, geometry_.fin_h_nm};
          fins.add(box);
          sites_.push_back(FinSite{static_cast<std::uint32_t>(r),
                                   static_cast<std::uint32_t>(c), ls.role});
          efficiency_.push_back(1.0);

          // Bulk FinFET: tiered substrate collection volumes under the fin
          // (SOI's buried oxide suppresses these — paper Sec. 3.3).
          if (geometry_.technology == TechnologyKind::kBulk) {
            for (const CollectionTier& tier : geometry_.bulk_tiers) {
              FINSER_REQUIRE(tier.depth_hi_nm > tier.depth_lo_nm &&
                                 tier.efficiency >= 0.0 && tier.efficiency <= 1.0,
                             "ArrayLayout: malformed bulk collection tier");
              geom::Aabb sub = box;
              sub.lo.z = -tier.depth_hi_nm;
              sub.hi.z = -tier.depth_lo_nm;
              fins.add(sub);
              sites_.push_back(FinSite{static_cast<std::uint32_t>(r),
                                       static_cast<std::uint32_t>(c), ls.role});
              efficiency_.push_back(tier.efficiency);
            }
          }
        }
      }
    }
  }
  bounds_ = fins.bounds();
  index_ = std::make_shared<const geom::UniformGrid>(std::move(fins));
}

}  // namespace finser::sram
