#pragma once
/// \file track.hpp
/// \brief Particle-track transport through a set of fins (Geant4 substitute).
///
/// Given a ray (in nm coordinates), a particle species and a kinetic energy,
/// the Transporter walks the track through the die: collecting silicon fin
/// boxes deposit ionizing energy that converts to e-h pairs (3.6 eV/pair);
/// the inter-fin dielectric background only degrades the particle's energy.
/// Energy is degraded continuously (CSDA with sub-stepping) and fluctuated
/// per segment by the configured straggling model, so a single grazing track
/// can cross fins of several cells with *correlated*, *ordered* deposits —
/// exactly the mechanism that produces MBUs in the paper's array analysis.
///
/// The Transporter builds one phys::EnergyLoss evaluator per species for
/// its fin and its background material at construction, and evaluates the
/// energy-dependent terms once per segment entry: the segment's first CSDA
/// step, its straggling draw and (in a fin) the ionizing fraction share
/// them. The terms at a track's entry energy are kept per (species,
/// material) until a track enters at another energy: an array energy bin
/// shoots every strike at one energy, so its first segments all reuse them.
/// The array strike loops call the buffer-filling transport() with a
/// TrackResult they keep per worker, so once the buffers have grown a strike
/// allocates nothing. Their Transporters share the layout's read-only fin
/// index (sram::ArrayLayout::fin_index()).

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "finser/geom/box_set.hpp"
#include "finser/phys/material.hpp"
#include "finser/phys/particle.hpp"
#include "finser/phys/stopping.hpp"
#include "finser/phys/straggling.hpp"
#include "finser/stats/rng.hpp"

namespace finser::phys {

/// Ionizing energy deposited in one fin by one track.
struct FinDeposit {
  std::uint32_t fin_id = 0;
  double path_nm = 0.0;       ///< Chord length through the fin.
  double energy_mev = 0.0;    ///< Sampled ionizing energy deposit.
  double eh_pairs = 0.0;      ///< Generated electron-hole pairs.
};

/// Outcome of transporting one particle.
struct TrackResult {
  std::vector<FinDeposit> deposits;  ///< In track order; only fins actually hit.
  double exit_energy_mev = 0.0;      ///< Remaining energy when leaving the world.
  bool stopped_inside = false;       ///< True if the particle ranged out in the die.
};

/// Transport engine over an immutable fin BoxSet.
class Transporter {
 public:
  struct Config {
    StragglingModel straggling = StragglingModel::kAuto;
    double cutoff_mev = 1e-5;  ///< Track abandoned below this energy (10 eV).
    const Material* fin_material = nullptr;         ///< Default: silicon().
    const Material* background_material = nullptr;  ///< Default: silicon_dioxide().
  };

  /// \param fins collecting boxes; the Transporter indexes a copy.
  explicit Transporter(const geom::BoxSet& fins);
  Transporter(const geom::BoxSet& fins, const Config& config);
  /// Transport through the boxes of a shared, read-only \p index.
  Transporter(std::shared_ptr<const geom::UniformGrid> index,
              const Config& config);

  Transporter(const Transporter&) = delete;
  Transporter& operator=(const Transporter&) = delete;

  /// Transport one particle into \p out (its deposits are cleared first,
  /// their capacity kept); deterministic given \p rng state.
  void transport(const geom::Ray& ray, Species s, double e_mev,
                 stats::Rng& rng, TrackResult& out);

  /// By-value form of the above.
  TrackResult transport(const geom::Ray& ray, Species s, double e_mev,
                        stats::Rng& rng) {
    TrackResult out;
    transport(ray, s, e_mev, rng, out);
    return out;
  }

  const geom::BoxSet& fins() const { return grid_->set(); }

 private:
  /// One evaluator per Species enumerator, in declaration order.
  using PerSpecies = std::array<EnergyLoss, 5>;
  static PerSpecies evaluators(const Material& m);
  /// Terms at the last entry energy per species (e_mev 0: none yet).
  using EntryTerms = std::array<EnergyLoss::Terms, 5>;

  Config config_;
  std::shared_ptr<const geom::UniformGrid> grid_;
  std::vector<geom::BoxHit> scratch_hits_;
  PerSpecies fin_loss_;
  PerSpecies background_loss_;
  EntryTerms fin_entry_{};
  EntryTerms background_entry_{};
};

}  // namespace finser::phys
