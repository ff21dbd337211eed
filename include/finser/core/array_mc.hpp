#pragma once
/// \file array_mc.hpp
/// \brief Array-level 3-D Monte Carlo (paper Sec. 5.1).
///
/// For one particle species and energy, strikes are sampled over the array
/// footprint (random position on a source plane above the fins, random
/// downward direction), ray-traced through the fin boxes with energy
/// degradation, and converted per cell into the (I1, I2, I3) charge triple
/// of that cell's sensitive transistors. Cell POFs come from the
/// characterized LUTs and combine into the array POF via the paper's
/// Eqs. 4–6:
///
///   POF_tot = 1 − Π_i (1 − POF(cell_i))                     (Eq. 4)
///   POF_SEU = Σ_i POF(cell_i) · Π_{j≠i} (1 − POF(cell_j))   (Eq. 5)
///   POF_MBU = POF_tot − POF_SEU                             (Eq. 6)
///
/// One geometry pass prices **all** supply voltages and both
/// process-variation modes simultaneously (the deposits are electrical-
/// state-independent) — the hierarchical trick that keeps the cross-layer
/// analysis tractable (paper Sec. 2).
///
/// The chunked strike driver, accumulation and cancellation live in the
/// common base (core/array_engine.hpp); this engine supplies only the
/// charged-particle source sampling and per-strike physics.
///
/// Most uniform strikes cross no fin. Once a uniform or Sobol strike has
/// drawn its origin and its direction's polar draws, the rectangle its
/// track can reach before it leaves the fin layer is tested against the
/// layout's footprint table (geom::UniformGrid::reach_empty). An empty
/// rectangle is a provable miss, scored as one without the direction's
/// trig, the grid walk or the transport, none of which draws a random
/// number for a miss; so every result bit is the one a transported miss
/// gives (docs/physics.md §5.1).

#include <vector>

#include "finser/core/array_engine.hpp"
#include "finser/stats/direction.hpp"

namespace finser::core {

/// Angular law of the particle source (see stats/direction.hpp).
///  * kIsotropic — uniform over the downward hemisphere (package alphas);
///  * kCosine    — flux-weighted arrivals (atmospheric particles);
///  * kBeam      — fixed direction (accelerated beam testing; set
///                 ArrayMcConfig::beam_direction, tilted beams are the
///                 standard technique for probing MBU sensitivity).
enum class SourceAngularLaw { kIsotropic, kCosine, kBeam };

/// Position sampling over the source plane.
enum class SourcePositionSampling {
  kUniform,     ///< i.i.d. uniform positions.
  kImportance,  ///< Track-aware mixture importance sampling: the direction is
                ///< drawn first, then the strike origin is sampled by picking
                ///< the track's fin-layer *crossing point* from a |z|-banded
                ///< stats::FocusPlane over dilated sensitive-fin footprints
                ///< and back-projecting along the track to the source plane
                ///< (a pure translation, so the proposal density — and hence
                ///< the likelihood-ratio weight — stays exact). A uniform
                ///< mixture floor bounds every weight; same estimand as
                ///< kUniform, far lower variance (docs/statistics.md).
};

/// Array-MC knobs.
struct ArrayMcConfig {
  std::size_t strikes = 40000;  ///< Strikes per (species, energy) point.
  SourceAngularLaw angular = SourceAngularLaw::kIsotropic;
  SourcePositionSampling position = SourcePositionSampling::kUniform;
  /// Beam direction for SourceAngularLaw::kBeam (normalized internally;
  /// must point downward, z < 0).
  geom::Vec3 beam_direction{0.0, 0.0, -1.0};
  phys::StragglingModel straggling = phys::StragglingModel::kAuto;
  /// Lateral margin of the source plane around the array footprint [nm].
  /// Grazing tracks that enter the fin layer from just outside the array
  /// are real MBU contributors; the sampled area (and hence the FIT
  /// normalization, see sampled_area_nm2()) grows accordingly.
  double source_margin_nm = 400.0;
  /// Source plane height above fin tops [nm]. Kept small so near-grazing
  /// tracks (the ones that cross several cells and cause MBUs) enter the
  /// fin layer while still above the array footprint.
  double source_height_nm = 1.0;
  /// Worker threads for the strike loop; 0 = auto (FINSER_THREADS, else
  /// hardware concurrency). Results never depend on this value.
  std::size_t threads = 0;
  /// Strikes per deterministic RNG chunk. Chunk *i* always consumes stream
  /// stats::Rng::stream(seed, i), so results depend on (seed, strikes,
  /// chunk) — and on nothing about the schedule or thread count.
  std::size_t chunk = 1024;
  /// QMC origin draws (stats::QmcMode). Default off; the default
  /// reproduces the pseudo-random estimator bit-for-bit.
  stats::SamplingConfig sampling;
  /// Per-energy-point CI-driven early stopping (default off).
  stats::CiStopConfig ci;
  /// Correlated multi-node charge collection (docs/charge_sharing.md). The
  /// default mode (1x1) keeps the independent per-cell path byte-for-byte;
  /// 2x2/1x4 group touched cells into tiles and price each multi-cell tile
  /// by simulating its struck cells with inter-cell charge sharing.
  sram::ClusterConfig cluster;
  /// The cluster surface the tiles are priced on; required when
  /// cluster.enabled(), and built for exactly `cluster` (SerFlow's, shared
  /// across energy bins and persisted through the ArtifactStore, or one of
  /// the caller's). Unused in 1x1 mode. Must outlive the engine.
  sram::ClusterPofSurface* cluster_surface = nullptr;
};

/// The charged-particle array Monte-Carlo engine.
class ArrayMc final : public ArrayEngine {
 public:
  /// \param layout and \param model must outlive the engine.
  ArrayMc(const sram::ArrayLayout& layout, const sram::CellSoftErrorModel& model,
          const ArrayMcConfig& config);

  /// Run the MC at a fixed particle energy (legacy spelling of
  /// ArrayEngine::run_point; same determinism and cancellation contract).
  ArrayMcResult run(phys::Species species, double e_mev, std::uint64_t seed,
                    const exec::ProgressSink& progress = {},
                    const exec::CancelToken* cancel = nullptr) const {
    return run_point(EnergyPoint{species, e_mev}, seed, progress, cancel);
  }

  const ArrayMcConfig& config() const { return config_; }

  std::uint64_t point_fingerprint(const EnergyPoint& point,
                                  std::uint64_t seed) const override;

 protected:
  void simulate_chunk(const exec::ChunkRange& r, const EnergyPoint& point,
                      std::uint64_t seed, stats::Rng& rng, WorkerScratch& ws,
                      McPartial& part) const override;

 private:
  ArrayMcConfig config_;
  geom::Vec3 beam_dir_;  ///< Normalized beam direction (kBeam law).
  /// The source plane [x_lo, x_hi] × [y_lo, y_hi] at height z [nm].
  struct SourcePlane {
    double x_lo = 0.0, x_hi = 0.0, y_lo = 0.0, y_hi = 0.0, z = 0.0;
  };
  SourcePlane plane_;
  /// Descent from the source plane to the lowest fin bottom [nm]: a track
  /// below it crosses no fin.
  double reach_depth_nm_ = 0.0;
  /// The beam's x-y run per unit of descent (kBeam law).
  stats::LateralRun beam_run_;
  /// Importance-sampling proposals over the fin-layer mid-depth plane, one
  /// per (geometric |z| band, azimuth sector) pair: grazing bands dilate
  /// the sensitive-fin footprints along the sector azimuth into the strip
  /// their tracks sweep while crossing the fin layer. Engaged only for
  /// SourcePositionSampling::kImportance; near-horizontal tracks fall back
  /// to plain uniform origins.
  std::vector<stats::FocusPlane> focus_bands_;
  /// Depth from the source plane down to fin mid-height [nm]: the
  /// back-projection distance from a sampled crossing point to the origin.
  double focus_mid_depth_nm_ = 0.0;
};

}  // namespace finser::core
