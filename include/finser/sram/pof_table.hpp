#pragma once
/// \file pof_table.hpp
/// \brief Probability-of-failure LUTs of the characterized SRAM cell.
///
/// The paper stores "POF LUTs ... for different supply voltages, current
/// pulse magnitudes, and all possible combinations of current pulses"
/// (Sec. 4). Since the cell's response depends only on delivered charge
/// (validated in the paper and re-verified by our pulse-shape ablation),
/// tables are keyed by charge:
///
///  * single-current strikes — an exact empirical CDF of the per-sample
///    critical charge under threshold variation (smooth POF), plus the
///    nominal (variation-free) critical charge for the paper's
///    "neglecting process variation" mode (binary POF);
///  * two-current strikes  — bilinear POF grids (with-PV and nominal);
///  * three-current strike — trilinear POF grids.
///
/// One PofTable covers one supply voltage; CellSoftErrorModel aggregates
/// the swept voltages. Their byte codec is the payload of the `cell_model`
/// artifact, through which expensive characterizations are cached across
/// runs, campaigns and benchmark binaries.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "finser/sram/cell.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/interp.hpp"

namespace finser::sram {

/// Empirical POF of a single strike current acting alone.
struct SingleCdf {
  /// Critical charge of the variation-free cell [fC];
  /// kNeverFlips if the nominal cell survives any tabulated charge.
  double nominal_qcrit_fc = 0.0;

  /// Sorted per-sample critical charges [fC] (finite values only).
  std::vector<double> qcrit_samples_fc;

  /// Total PV samples drawn (≥ qcrit_samples_fc.size(); the difference
  /// never flipped below the characterization ceiling).
  std::size_t total_samples = 0;

  /// PV samples whose bisection failed to converge numerically. They are
  /// *excluded* from the CDF (not counted as flips or survivals) and
  /// reported up through PofTable / the characterizer's failure-fraction
  /// check, so a solver hiccup degrades statistics honestly instead of
  /// biasing the POF.
  std::size_t failed_samples = 0;

  /// Sentinel critical charge for "does not flip below the ceiling".
  static constexpr double kNeverFlips = 1e30;

  /// POF(q) with process variation: fraction of samples flipped by q.
  double pof(double q_fc) const;

  /// POF(q) for the nominal cell (binary step).
  double pof_nominal(double q_fc) const;

  /// Mean / stddev of the finite critical-charge samples [fC].
  double mean_qcrit_fc() const;
  double stddev_qcrit_fc() const;
};

/// POF LUTs of one cell at one supply voltage.
class PofTable {
 public:
  double vdd_v = 0.0;
  double q_max_fc = 0.0;  ///< Characterization ceiling of the grids.

  /// Index 0 → I1 alone, 1 → I2 alone, 2 → I3 alone.
  std::array<SingleCdf, 3> singles;

  /// Pair grids; index 0 → (I1,I2), 1 → (I1,I3), 2 → (I2,I3);
  /// axes are the two charges [fC].
  std::array<util::Grid2, 3> pairs_pv;
  std::array<util::Grid2, 3> pairs_nominal;

  /// Triple grid over (I1,I2,I3) charges [fC].
  util::Grid3 triple_pv;
  util::Grid3 triple_nominal;

  /// Characterization sample bookkeeping across every stage that built this
  /// table (single CDFs + grid MC): attempted counts all strike
  /// simulations, failed the ones the solver gave up on (excluded from the
  /// LUT values; see CharacterizerConfig::max_failure_fraction).
  std::size_t attempted_samples = 0;
  std::size_t failed_samples = 0;

  /// POF for an arbitrary charge combination.
  /// \param with_pv true → process-variation tables; false → nominal cell.
  double pof(const StrikeCharges& charges, bool with_pv) const;

  /// Byte codec shared by the cell-model codec below and the per-voltage
  /// `pof_table` artifacts of core::load_or_characterize (util/bytes.hpp;
  /// read throws util::Error on a malformed payload).
  void write(util::ByteWriter& w) const;
  static PofTable read(util::ByteReader& r);

  /// Charges below this are treated as "no strike" [fC] (≈0.06 electrons).
  static constexpr double kChargeEpsFc = 1e-5;
};

/// Characterized model across the supply-voltage sweep.
class CellSoftErrorModel {
 public:
  std::vector<PofTable> tables;  ///< Sorted by vdd_v ascending.
  std::uint64_t config_fingerprint = 0;  ///< Cell-model artifact key.

  /// Table at the given supply voltage (must match a characterized point
  /// within 1 mV; the paper evaluates fixed Vdd points, not a continuum).
  const PofTable& at_vdd(double vdd_v) const;

  /// Convenience dispatch.
  double pof(double vdd_v, const StrikeCharges& charges, bool with_pv) const;

  std::vector<double> vdds() const;

  /// Characterization failure bookkeeping summed over every table.
  std::size_t attempted_samples() const;
  std::size_t failed_samples() const;
};

/// Cell-model artifact payload (kind "cell_model"): u64 table count, then
/// each PofTable through its own codec. The model fingerprint is the
/// artifact key, so decode restores it from \p fingerprint. decode throws
/// util::Error on a malformed payload; the ArtifactStore envelope supplies
/// magic, key echo and CRC.
std::vector<std::uint8_t> encode_cell_model(const CellSoftErrorModel& model);
CellSoftErrorModel decode_cell_model(const std::vector<std::uint8_t>& blob,
                                     std::uint64_t fingerprint);

}  // namespace finser::sram
