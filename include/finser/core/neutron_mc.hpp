#pragma once
/// \file neutron_mc.hpp
/// \brief Array-level Monte Carlo for neutron indirect ionization
/// (the paper's Sec.-7 future work, built on phys/neutron.hpp).
///
/// Neutrons interact so rarely (mean free path ~5 cm vs a ~2 µm die stack)
/// that analog sampling would waste virtually every history. The engine
/// uses the standard **forced-interaction** variance-reduction scheme:
/// every sampled neutron is forced to interact somewhere along its chord
/// through the interaction slab (the silicon within `interaction_depth_um`
/// of the fin layer), and the history carries the weight
///
///   w = Σ(E_n) · L_chord   (the true interaction probability, « 1),
///
/// so the POF estimator stays unbiased per *incident* neutron — the same
/// normalization the charged-particle ArrayMc uses, and therefore directly
/// pluggable into the Eq.-8 FIT integral. Secondaries (Si/Mg recoils,
/// alphas, protons) are transported with the ordinary charged-particle
/// machinery; recoils deposit locally, (n,α) alphas range over many cells.
///
/// The chunked history driver, accumulation and cancellation live in the
/// common base (core/array_engine.hpp); this engine supplies the forced
/// interaction, secondary transport and the weighted estimator.

#include "finser/core/array_mc.hpp"
#include "finser/phys/neutron.hpp"

namespace finser::core {

/// Neutron-MC knobs.
struct NeutronMcConfig {
  std::size_t histories = 40000;  ///< Forced-interaction histories per energy.
  SourceAngularLaw angular = SourceAngularLaw::kIsotropic;
  phys::StragglingModel straggling = phys::StragglingModel::kAuto;
  /// Depth of the forced-interaction slab below the fin tops [um]. Covers
  /// the fins, the BOX and the top of the substrate/handle silicon from
  /// which recoils and reaction alphas can still reach the fin layer.
  double interaction_depth_um = 2.0;
  /// Lateral margin of the source plane [nm]; (n,α) alphas travel ~10 µm,
  /// so off-array interactions contribute and the default is generous.
  double source_margin_nm = 2000.0;
  /// Worker threads for the history loop; 0 = auto (FINSER_THREADS, else
  /// hardware concurrency). Results never depend on this value.
  std::size_t threads = 0;
  /// Histories per deterministic RNG chunk (see ArrayMcConfig::chunk).
  std::size_t chunk = 1024;
  /// Per-energy-point CI-driven early stopping (default off).
  stats::CiStopConfig ci;
};

/// Forced-interaction neutron array Monte Carlo.
class NeutronArrayMc final : public ArrayEngine {
 public:
  NeutronArrayMc(const sram::ArrayLayout& layout,
                 const sram::CellSoftErrorModel& model,
                 const NeutronMcConfig& config);

  /// Run at one neutron energy (legacy spelling of ArrayEngine::run_point;
  /// the point's species is ignored — every history is a neutron). The
  /// estimates are per *incident neutron* on the sampled plane (weights
  /// applied), so the result feeds integrate_fit() with the neutron
  /// spectrum exactly like the charged-particle results do.
  ArrayMcResult run(double e_n_mev, std::uint64_t seed,
                    const exec::ProgressSink& progress = {},
                    const exec::CancelToken* cancel = nullptr) const {
    return run_point(EnergyPoint{phys::Species::kProton, e_n_mev}, seed,
                     progress, cancel);
  }

  const NeutronMcConfig& config() const { return config_; }

  std::uint64_t point_fingerprint(const EnergyPoint& point,
                                  std::uint64_t seed) const override;

 protected:
  void simulate_chunk(const exec::ChunkRange& r, const EnergyPoint& point,
                      std::uint64_t seed, stats::Rng& rng, WorkerScratch& ws,
                      McPartial& part) const override;

 private:
  NeutronMcConfig config_;
  phys::NeutronInteractionModel interactions_;
};

}  // namespace finser::core
