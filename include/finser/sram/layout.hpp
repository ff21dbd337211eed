#pragma once
/// \file layout.hpp
/// \brief 3-D layout of the 6T cell and the SRAM array (paper Fig. 5b, Sec. 5).
///
/// The array-level analysis needs to know, for every particle track, *which
/// transistors of which cells* it crosses. finser models each transistor's
/// sensitive volume as its fin channel region — a W_fin × L_gate × H_fin
/// silicon box under the gate — placed in a standard 14 nm "thin cell":
///
///   poly line A:  PD_L (left n-fin)  PU_L (left p-fin)   PG_R (right n-fin)
///   poly line B:  PG_L (left n-fin)  PU_R (right p-fin)  PD_R (right n-fin)
///
/// Cells tile into an array with the usual x-mirroring of odd columns and
/// y-mirroring of odd rows (shared wells/contacts), which is what makes
/// neighboring cells' sensitive fins adjacent — the geometric origin of
/// multi-bit upsets. Coordinates are nm: x along the wordline, y along the
/// bitline, z vertical with fins spanning [0, H_fin] on top of the BOX.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "finser/geom/box_set.hpp"
#include "finser/sram/cell.hpp"

namespace finser::sram {

/// FinFET substrate topology. The paper studies SOI (its IBM focus) and
/// names bulk FinFETs as future work; finser implements both:
///  * **SOI** — the buried oxide blocks diffusion collection (paper
///    Sec. 3.3): only charge deposited in the fin itself is collected.
///  * **Bulk** — the fin sits on silicon; charge deposited in the substrate
///    under the drain junction is partially collected by funneling +
///    diffusion. Modeled as tiered collection volumes below each fin with
///    depth-decaying efficiency (the standard compact approximation of the
///    TCAD-observed collection profile, cf. the paper's refs [11][12]).
enum class TechnologyKind { kSoi, kBulk };

/// One depth tier of the bulk collection volume.
struct CollectionTier {
  double depth_lo_nm = 0.0;  ///< Top of the tier (below the fin base).
  double depth_hi_nm = 0.0;  ///< Bottom of the tier.
  double efficiency = 0.0;   ///< Fraction of deposited charge collected.
};

/// Geometric parameters of the thin cell [nm].
struct CellGeometry {
  double cell_w_nm = 380.0;  ///< Cell pitch along x (wordline direction).
  double cell_h_nm = 160.0;  ///< Cell pitch along y (bitline direction).
  double fin_w_nm = 10.0;
  double fin_h_nm = 26.0;
  double gate_len_nm = 20.0;
  double fin_pitch_nm = 48.0;  ///< Pitch of extra fins in multi-fin devices.

  double x_nfin_left_nm = 50.0;    ///< Left n-active fin column (PD_L / PG_L).
  double x_pfin_left_nm = 160.0;   ///< Left p-fin (PU_L).
  double x_pfin_right_nm = 220.0;  ///< Right p-fin (PU_R).
  double x_nfin_right_nm = 330.0;  ///< Right n-active fin column (PD_R / PG_R).
  double y_poly_a_nm = 40.0;       ///< Gate line A center.
  double y_poly_b_nm = 120.0;      ///< Gate line B center.

  int nfin_pd = 1;  ///< Fins per pull-down.
  int nfin_pg = 1;  ///< Fins per pass-gate.
  int nfin_pu = 1;  ///< Fins per pull-up.

  TechnologyKind technology = TechnologyKind::kSoi;

  /// Bulk-only: collection tiers under each fin (ignored for SOI).
  /// Defaults approximate the funneling/diffusion depth profile of a
  /// lightly doped substrate: strong collection within the first 100 nm,
  /// tailing off by ~600 nm.
  std::vector<CollectionTier> bulk_tiers = {
      {0.0, 100.0, 0.6}, {100.0, 300.0, 0.35}, {300.0, 600.0, 0.15}};
};

/// Stored data pattern of the array.
enum class DataPattern { kAllOnes, kAllZeros, kCheckerboard, kRandom };

/// Identity of one fin box in the array.
struct FinSite {
  std::uint32_t cell_row = 0;
  std::uint32_t cell_col = 0;
  Role role = Role::kPdL;
};

/// The SRAM array layout: fin boxes + ownership map + stored data.
class ArrayLayout {
 public:
  /// \param rows,cols   array dimensions in cells (e.g. 9×9 in the paper).
  /// \param pattern_seed used only for DataPattern::kRandom.
  ArrayLayout(std::size_t rows, std::size_t cols, const CellGeometry& geometry,
              DataPattern pattern = DataPattern::kCheckerboard,
              std::uint64_t pattern_seed = 1);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t cell_count() const { return rows_ * cols_; }
  const CellGeometry& geometry() const { return geometry_; }

  /// All fin boxes (ids are FinSite indices).
  const geom::BoxSet& fins() const { return index_->set(); }

  /// The fins' ray-query index, built once with the layout. It is
  /// read-only, so every strike worker shares it, and copies of the layout
  /// share it too.
  const std::shared_ptr<const geom::UniformGrid>& fin_index() const {
    return index_;
  }

  /// Owner of fin box \p fin_id.
  const FinSite& site(std::uint32_t fin_id) const;

  /// Stored bit of a cell.
  bool bit(std::size_t row, std::size_t col) const;

  /// Array footprint for the FIT integral (paper Eq. 7: Lx, Ly).
  double width_nm() const { return static_cast<double>(cols_) * geometry_.cell_w_nm; }
  double height_nm() const { return static_cast<double>(rows_) * geometry_.cell_h_nm; }

  /// Bounding box of all fins.
  const geom::Aabb& bounds() const { return bounds_; }

  /// Which strike current a deposit in a transistor feeds, given the cell's
  /// stored bit: 0 → I1, 1 → I2, 2 → I3, nullopt → transistor not sensitive.
  /// (Paper Fig. 5a: only the three OFF transistors with |Vds| = Vdd are
  /// sensitive; which three depends on the stored value.)
  static std::optional<int> strike_index(Role role, bool bit);

  /// Charge-collection efficiency of box \p fin_id: 1.0 for fin channels,
  /// the tier efficiency for bulk substrate collection volumes.
  double collection_efficiency(std::uint32_t fin_id) const;

 private:
  void build();

  std::size_t rows_, cols_;
  CellGeometry geometry_;
  DataPattern pattern_;
  std::uint64_t pattern_seed_;
  std::shared_ptr<const geom::UniformGrid> index_;
  geom::Aabb bounds_;
  std::vector<FinSite> sites_;
  std::vector<double> efficiency_;
  std::vector<std::uint8_t> bits_;
};

}  // namespace finser::sram
