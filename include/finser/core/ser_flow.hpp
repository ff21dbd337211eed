#pragma once
/// \file ser_flow.hpp
/// \brief End-to-end SER estimation flow (paper Fig. 6).
///
/// Orchestrates the three layers:
///   1. cell characterization → POF LUTs (cached through the model_cache
///      hook when one is plugged in — the paper builds its LUTs "only once"
///      too);
///   2. array-level 3-D MC per (species, energy bin) → POF(E);
///   3. FIT integration over the environmental spectrum (Eq. 8).
///
/// All Monte-Carlo sizes scale with the FINSER_MC_SCALE environment
/// variable (default 1.0) so the same binaries run as quick smoke tests or
/// long high-fidelity campaigns.

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "finser/ckpt/checkpoint.hpp"
#include "finser/core/array_mc.hpp"
#include "finser/core/fit.hpp"
#include "finser/core/neutron_mc.hpp"
#include "finser/env/spectrum.hpp"
#include "finser/exec/cancel.hpp"
#include "finser/exec/progress.hpp"
#include "finser/sram/characterize.hpp"
#include "finser/sram/layout.hpp"

namespace finser::core {

/// Cache hook for per-(species, energy-bin) array-MC results, keyed by the
/// engine's point fingerprint (ArrayEngine::point_fingerprint — everything
/// that decides the numbers, nothing about the schedule). The pipeline layer
/// adapts its content-addressed ArtifactStore to this interface; core stays
/// independent of the store. Implementations must be thread-safe (bins run
/// in parallel) and never throw: a failed load is a miss (recompute), a
/// failed store is a lost cache entry (the result is already in memory).
/// Blobs round-trip through encode_result/decode_result bit-exactly, so a
/// cached bin is indistinguishable from a recomputed one.
class BinCache {
 public:
  virtual ~BinCache() = default;
  virtual bool load(std::uint64_t fingerprint,
                    std::vector<std::uint8_t>& out) = 0;
  virtual void store(std::uint64_t fingerprint,
                     const std::vector<std::uint8_t>& blob) = 0;
};

/// Full flow configuration.
struct SerFlowConfig {
  std::size_t array_rows = 9;  ///< Paper Sec. 6: a 9×9 array suffices.
  std::size_t array_cols = 9;
  sram::CellGeometry cell_geometry;
  sram::CellDesign cell_design;
  sram::DataPattern pattern = sram::DataPattern::kCheckerboard;
  std::uint64_t pattern_seed = 1;

  sram::CharacterizerConfig characterization;
  ArrayMcConfig array_mc;
  NeutronMcConfig neutron_mc;

  /// Energy discretization per species (paper Eq. 8's ranges).
  std::size_t proton_bins = 12;
  std::size_t alpha_bins = 10;
  std::size_t neutron_bins = 8;
  double proton_e_lo_mev = 0.1;  ///< Direct-ionization band.
  double proton_e_hi_mev = 100.0;
  double alpha_e_lo_mev = 0.5;
  double alpha_e_hi_mev = 10.0;
  double neutron_e_lo_mev = 1.0;  ///< Below ~1 MeV recoils are sub-critical.
  double neutron_e_hi_mev = 1000.0;

  std::uint64_t seed = 2024;

  /// Optional per-energy-bin result cache (non-owning; must outlive the
  /// flow). Campaigns plug the shared ArtifactStore in here so re-runs and
  /// sibling scenarios skip already-priced bins.
  BinCache* bin_cache = nullptr;

  /// Optional cache for the memoized cluster POF surface (non-owning; the
  /// same never-throw contract as bin_cache, "cluster_surface" artifact
  /// kind). Keyed by the surface fingerprint; entries are pure functions of
  /// their keys, so a preloaded surface only *skips* joint simulations — it
  /// can never change a result. Unused when array_mc.cluster is 1x1.
  BinCache* cluster_cache = nullptr;

  /// Optional cache for the characterized cell model (non-owning; the same
  /// never-throw contract as bin_cache, "cell_model" artifact kind). Keyed
  /// by model_fingerprint(); blobs round-trip through
  /// sram::encode_cell_model bit-exactly, so a loaded model is
  /// indistinguishable from a characterized one.
  BinCache* model_cache = nullptr;

  /// Total thread budget of the flow; 0 = auto (FINSER_THREADS, else
  /// hardware concurrency). sweep() splits it into an outer level over
  /// energy bins and an inner level over strikes; stage configs with
  /// explicit nonzero `threads` keep their own setting. Never affects
  /// results.
  std::size_t threads = 0;
};

/// Result of sweeping one spectrum.
struct EnergySweepResult {
  phys::Species species = phys::Species::kProton;
  std::vector<double> vdds;
  std::vector<env::EnergyBin> bins;
  std::vector<ArrayMcResult> per_bin;          ///< Aligned with bins.
  std::vector<std::array<FitResult, 2>> fit;   ///< [vdd_index][mode].
};

/// The cross-layer flow.
class SerFlow {
 public:
  explicit SerFlow(const SerFlowConfig& config);

  /// Characterized cell model (built lazily through load_or_characterize,
  /// so a valid model_cache entry is loaded instead of characterized).
  const sram::CellSoftErrorModel& cell_model(
      const exec::ProgressSink& progress = {});

  /// Inject a pre-built cell model (campaigns share one characterization
  /// across scenarios). The model must carry the fingerprint this flow's
  /// configuration expects (model_fingerprint()) — an injected model is
  /// indistinguishable from one the flow would have characterized itself.
  void set_cell_model(sram::CellSoftErrorModel model);

  /// FNV-1a digest of the characterization inputs — the identity of the
  /// cell model this flow needs (cache/artifact key).
  std::uint64_t model_fingerprint() const {
    return config_.characterization.fingerprint(config_.cell_design);
  }

  const sram::ArrayLayout& layout() const { return layout_; }
  const SerFlowConfig& config() const { return config_; }

  /// Array MC at one fixed energy (used by the Fig.-8 reproduction).
  ArrayMcResult run_at_energy(phys::Species species, double e_mev,
                              const exec::ProgressSink& progress = {});

  /// Full spectrum sweep: POF(E) per bin + FIT integration (Figs. 9-11).
  /// Neutron spectra are dispatched to the forced-interaction neutron MC
  /// (indirect ionization — the paper's future-work extension); charged
  /// species use the direct-ionization ArrayMc. Bins run in parallel as the
  /// outer task level (per-bin seeds are pre-drawn in bin order, so results
  /// are thread-count-invariant), with the strike loops nested inside on
  /// the remaining thread budget.
  /// A non-null \p cancel interrupts the sweep at strike-chunk granularity
  /// (throws util::Cancelled). Resume is per energy bin through bin_cache:
  /// bins priced before the interruption are cache hits on the rerun.
  EnergySweepResult sweep(const env::Spectrum& spectrum,
                          const exec::ProgressSink& progress = {},
                          const exec::CancelToken* cancel = nullptr);

 private:
  /// The flow-owned cluster surface (nullptr when array_mc.cluster is 1x1),
  /// shared by every engine the flow builds so memoized joint simulations
  /// amortize across energy bins and scenarios.
  sram::ClusterPofSurface* ensure_cluster_surface();

  SerFlowConfig config_;
  sram::ArrayLayout layout_;
  std::optional<sram::CellSoftErrorModel> model_;
  std::unique_ptr<sram::ClusterPofSurface> cluster_surface_;
  std::uint64_t mc_seed_cursor_;
};

/// The one load → characterize → store sequence of the cell model.
/// \p cache (may be null) is consulted under config.fingerprint(design); on
/// a miss or an undecodable blob the cell is characterized under \p run
/// (its per-voltage checkpoint and cancel token) and the model stored back.
/// \p characterized (if non-null) reports whether a characterization ran.
sram::CellSoftErrorModel load_or_characterize(
    const sram::CellDesign& design, const sram::CharacterizerConfig& config,
    BinCache* cache, const exec::ProgressSink& progress = {},
    const ckpt::RunOptions& run = {}, bool* characterized = nullptr);

/// FINSER_MC_SCALE environment variable (default 1.0, clamped to > 0).
double mc_scale_from_env();

/// Multiply every Monte-Carlo size in \p config by \p scale (≥ minimum 1).
void apply_mc_scale(SerFlowConfig& config, double scale);

/// FINSER_CI_TARGET environment variable: target relative CI half-width for
/// the adaptive stopping rule. Returns -1 when unset or malformed (meaning
/// "no override"); 0 explicitly disables stopping; > 0 enables it.
double ci_target_from_env();

/// Apply a CI-target override to both Monte-Carlo engines. \p target < 0 is
/// a no-op (environment unset); 0 disables adaptive stopping; > 0 sets the
/// relative-half-width goal. The strike/history budgets stay as configured —
/// they become *ceilings* the stopper may undercut.
void apply_ci_target(SerFlowConfig& config, double target);

/// FINSER_CLUSTER environment variable: cluster-mode override ("1x1",
/// "2x2", "1x4"). Returns nullopt when unset; a malformed value warns on
/// stderr and returns nullopt (meaning "no override").
std::optional<sram::ClusterMode> cluster_mode_from_env();

/// Apply a cluster-mode override to the charged-particle engine config.
/// nullopt is a no-op (environment unset).
void apply_cluster(SerFlowConfig& config,
                   std::optional<sram::ClusterMode> mode);

}  // namespace finser::core
