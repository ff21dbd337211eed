#pragma once
/// \file characterize.hpp
/// \brief SRAM-cell soft-error characterization (paper Sec. 4).
///
/// Builds the POF LUTs by repeated strike simulation:
///
///  * **Single currents** — for each of I1/I2/I3 and each process-variation
///    sample (6 i.i.d. N(0, σ_Vt) threshold shifts) the critical charge is
///    bisected; the sorted sample set *is* the POF curve (an exact empirical
///    CDF rather than the paper's fixed 1000-run grid — smoother for the
///    same simulation budget).
///  * **Current pairs / triple** — POF grids over charge combinations. The
///    flip region is monotone (more charge never un-flips a cell — enforced
///    by tests), so the nominal boundary is found with per-row binary
///    search, and PV Monte Carlo is spent only on grid cells within ~4σ of
///    that boundary; everything else is deterministically 0 or 1.
///
/// Characterization cost is dominated by SPICE transients, so the expensive
/// stages run on the exec thread pool: PV samples, boundary-search rows and
/// near-boundary grid cells are independent work items, each drawing from
/// its own counter-derived RNG stream (stats::Rng::stream), which keeps the
/// model bit-identical for any thread count. A full 5-voltage model is a
/// few tens of seconds on one core and is cached on disk as a `cell_model`
/// artifact (core::load_or_characterize).

#include <cstdint>
#include <string>
#include <vector>

#include "finser/ckpt/checkpoint.hpp"
#include "finser/exec/progress.hpp"
#include "finser/sram/cell.hpp"
#include "finser/sram/pof_table.hpp"
#include "finser/stats/rng.hpp"

namespace finser::sram {

namespace detail {
struct SimSlots;  // Per-worker StrikeSimulator instances (characterize.cpp).
}  // namespace detail

/// Knobs of the characterization campaign.
struct CharacterizerConfig {
  std::vector<double> vdds = {0.7, 0.8, 0.9, 1.0, 1.1};
  std::size_t pv_samples_single = 200;  ///< Critical-charge samples per current.
  std::size_t pair_grid_points = 9;     ///< Grid points per pair axis.
  std::size_t triple_grid_points = 6;   ///< Grid points per triple axis.
  std::size_t pv_samples_grid = 48;     ///< MC samples per near-boundary cell.
  double q_max_fc = 0.4;                ///< Charge ceiling of all tables [fC].
  double bisect_tol_fc = 2e-4;          ///< Critical-charge resolution [fC].
  spice::PulseShape::Kind pulse_kind = spice::PulseShape::Kind::kRectangular;
  std::uint64_t seed = 0x5EEDCAFEull;
  /// Worker threads for the SPICE-transient stages; 0 = auto
  /// (FINSER_THREADS, else hardware concurrency). Deliberately NOT part of
  /// the fingerprint: the thread count never changes the model.
  std::size_t threads = 0;
  /// Tolerated fraction of PV strike samples whose solve fails numerically.
  /// Failed samples are counted and *excluded* from the LUT statistics
  /// (never treated as flip or no-flip); if their fraction exceeds this,
  /// characterization aborts with NumericalError — a solver that sick would
  /// bias the model, not just thin its statistics. Not fingerprinted: it
  /// gates, it never changes values.
  double max_failure_fraction = 0.05;

  /// Fingerprint of (config, design) for cache validation. Includes a
  /// characterization-scheme version, bumped whenever the RNG-consumption
  /// scheme changes, so stale disk caches are rebuilt.
  std::uint64_t fingerprint(const CellDesign& design) const;
};

/// Critical-charge bisection along a fixed charge direction:
/// returns the smallest scale s such that s·\p direction flips the cell,
/// or SingleCdf::kNeverFlips if \p s_max·direction does not flip it.
double bisect_critical_scale(StrikeSimulator& sim, const StrikeCharges& direction,
                             const DeltaVt& delta_vt, double s_max, double tol,
                             spice::PulseShape::Kind kind);

/// Build a charge axis for the pair/triple POF grids: a zero anchor, a dense
/// band bracketing the cell's critical-charge range [qc_lo, qc_hi], and a
/// sparse tail out to \p q_max_fc. Dense placement keeps the bilinear/
/// trilinear interpolation honest exactly where POF transitions 0 → 1
/// (a uniform axis smears phantom POF onto near-zero charge combinations).
util::Axis make_charge_axis(double qc_lo_fc, double qc_hi_fc, std::size_t points,
                            double q_max_fc);

/// Cell characterizer.
class CellCharacterizer {
 public:
  CellCharacterizer(const CellDesign& design, const CharacterizerConfig& config);

  /// Characterize every configured supply voltage. Voltage \p i (in sorted
  /// order) runs under seed stats::Rng::derive_seed(config.seed, i).
  ///
  /// With \p run active the campaign is checkpointable: the unit of work is
  /// one supply voltage (each checkpoint blob is a serialized PofTable), so
  /// a cancelled or killed run resumes after its last finished voltage and
  /// the final model is bit-identical to an uninterrupted run. Cancellation
  /// via run.cancel also interrupts *inside* a voltage (between strike
  /// simulations); only fully finished voltages are persisted.
  CellSoftErrorModel characterize(const exec::ProgressSink& progress = {},
                                  const ckpt::RunOptions& run = {}) const;

  /// Characterize one supply voltage under \p seed. Deterministic in
  /// (design, config, vdd_v, seed) — never in the thread count. Throws
  /// util::Cancelled if \p cancel fires (partial tables are never returned)
  /// and util::NumericalError if the failed-sample fraction exceeds
  /// CharacterizerConfig::max_failure_fraction.
  PofTable characterize_at(double vdd_v, std::uint64_t seed,
                           const exec::ProgressSink& progress = {},
                           const exec::CancelToken* cancel = nullptr) const;

  /// Draw one process-variation sample (6 threshold shifts).
  DeltaVt sample_delta_vt(stats::Rng& rng) const;

  const CharacterizerConfig& config() const { return config_; }
  const CellDesign& design() const { return design_; }

 private:
  // The expensive stages take the cancel token (polled between strike
  // simulations) and accumulate per-sample solver-failure bookkeeping into
  // attempted/failed (see PofTable::attempted_samples).
  SingleCdf characterize_single(exec::ThreadPool& pool, detail::SimSlots& sims,
                                int which, std::uint64_t seed,
                                const exec::CancelToken* cancel,
                                std::size_t& attempted, std::size_t& failed) const;
  void characterize_pair(exec::ThreadPool& pool, detail::SimSlots& sims, int a,
                         int b, const util::Axis& axis, double sigma_q_fc,
                         std::uint64_t seed, util::Grid2& pv,
                         util::Grid2& nominal, const exec::CancelToken* cancel,
                         std::size_t& attempted, std::size_t& failed) const;
  void characterize_triple(exec::ThreadPool& pool, detail::SimSlots& sims,
                           const util::Axis& axis, double sigma_q_fc,
                           std::uint64_t seed, util::Grid3& pv,
                           util::Grid3& nominal, const exec::CancelToken* cancel,
                           std::size_t& attempted, std::size_t& failed) const;

  CellDesign design_;
  CharacterizerConfig config_;
};

}  // namespace finser::sram
