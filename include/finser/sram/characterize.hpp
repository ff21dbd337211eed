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
///    by tests), so the nominal boundary is found with per-line binary
///    search, and PV Monte Carlo is spent only on grid cells within ~4σ of
///    that boundary; everything else is deterministically 0 or 1.
///
/// Characterization cost is dominated by SPICE transients, so each voltage
/// runs as three flat task lists on the exec thread pool
/// (ThreadPool::parallel_drain): the nominal bisections with a fixed prefix
/// of each current's PV samples; the remaining PV samples with every grid's
/// boundary searches; and the grid Monte Carlo as short sub-chains of each
/// near-boundary cell's sample ladder. Every lane of every worker's
/// StrikeSimulator runs one task at a time and claims the next from the
/// phase's shared cursor as soon as its task needs no further strike. Each
/// task draws from its own counter-derived RNG stream (stats::Rng::stream)
/// and writes its results by task index, so the model is bit-identical for
/// any thread count, lane width or claim order. After the prefix, a PV
/// bisection starts from a bracket a least-squares fit of the prefix
/// predicts, verified before use (bisect_critical_scale with a
/// ScaleBracket). The paper's 5-voltage, 200-sample model takes under ten
/// seconds on one core and is cached as a `cell_model` artifact
/// (core::load_or_characterize).

#include <cstdint>
#include <string>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/exec/progress.hpp"
#include "finser/sram/cell.hpp"
#include "finser/sram/pof_table.hpp"
#include "finser/stats/rng.hpp"

namespace finser::sram {

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
/// or SingleCdf::kNeverFlips if \p s_max·direction does not flip it. The
/// search probes s_max, then halves [0, s_max] at 0.5·(lo + hi) until the
/// bracket is within \p tol and returns its upper end.
double bisect_critical_scale(StrikeSimulator& sim, const StrikeCharges& direction,
                             const DeltaVt& delta_vt, double s_max, double tol,
                             spice::PulseShape::Kind kind);

/// A predicted range [lo, hi] of a critical scale.
struct ScaleBracket {
  double lo = 0.0;
  double hi = 0.0;
};

/// What one bracketed bisect_critical_scale() call cost.
struct BisectCost {
  std::size_t transients = 0;  ///< Strike simulations it ran.
  bool hit = false;  ///< The bracket verified; false: it fell back.
};

/// bisect_critical_scale() started from a predicted bracket. It walks the
/// plain search's dyadic tree, with the same arithmetic, to the deepest node
/// [lo, hi] that contains \p predicted, then checks the node with at most
/// two strikes: hi must flip (at hi = s_max a hold returns kNeverFlips, as
/// the plain search does), and lo > 0 must hold. Verdicts are monotone in
/// charge, so every probe the walk skipped is decided by those two, and
/// bisecting below the node returns the plain search's value bit for bit. A
/// failed check runs the plain search. One difference remains: a strike the
/// plain search would have simulated on a skipped probe and seen fail cannot
/// fail here. \p cost, if given, reports what the call ran.
double bisect_critical_scale(StrikeSimulator& sim, const StrikeCharges& direction,
                             const DeltaVt& delta_vt, double s_max, double tol,
                             spice::PulseShape::Kind kind,
                             const ScaleBracket& predicted,
                             BisectCost* cost = nullptr);

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
  /// Throws util::InvalidArgument on a config that could not finish: no
  /// voltages, fewer than 6 points per grid axis, a non-finite or
  /// non-positive q_max or bisection tolerance, or a max_failure_fraction
  /// outside [0, 1].
  CellCharacterizer(const CellDesign& design, const CharacterizerConfig& config);

  /// Supply voltages in characterization order (ascending).
  std::vector<double> voltages() const;

  /// Characterize voltage \p index of voltages() under seed
  /// stats::Rng::derive_seed(config.seed, index) — the one place that
  /// decides voltage order and seeds. characterize() and the store-backed
  /// loop of core::load_or_characterize (which resumes an interrupted
  /// characterization from per-voltage `pof_table` artifacts) both call it.
  /// Throws util::Cancelled if \p cancel fires (polled whenever a lane
  /// takes its next task); a partial table is never returned.
  PofTable characterize_voltage(std::size_t index,
                                const exec::ProgressSink& progress = {},
                                const exec::CancelToken* cancel = nullptr) const;

  /// Characterize every configured supply voltage, in voltages() order.
  CellSoftErrorModel characterize(const exec::ProgressSink& progress = {},
                                  const exec::CancelToken* cancel = nullptr) const;

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
  CellDesign design_;
  CharacterizerConfig config_;
};

}  // namespace finser::sram
