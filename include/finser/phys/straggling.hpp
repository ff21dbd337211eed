#pragma once
/// \file straggling.hpp
/// \brief Energy-loss fluctuation (straggling) models.
///
/// A 10 nm fin is an extremely thin absorber: the *mean* energy loss from
/// the stopping power is only the first moment of a broad distribution.
/// Geant4 samples this microscopically; finser offers three models:
///
///  * kNone      — deterministic CSDA loss (useful for deterministic tests);
///  * kGaussian  — Bohr straggling, variance Ω² = 0.1569·z_eff²·(Z/A)·ρℓ
///                 [MeV², ρℓ in g/cm²]; adequate when many collisions occur;
///  * kMoyal     — Landau-like skewed distribution approximated by the Moyal
///                 density, scale ξ = (K/2)·z_eff²·(Z/A)·ρℓ/β² — the
///                 thin-absorber regime. Sampled exactly via
///                 X = mode + ξ·(−ln Z²), Z ~ N(0,1);
///  * kAuto      — physically selected per segment by the Vavilov
///                 significance parameter κ = ξ/T_max: slow heavy particles
///                 in a fin have κ ≫ 1 (many small transfers → Gaussian),
///                 relativistic ones κ ≪ 1 (rare large delta rays → Moyal).
///                 This regime split is exactly what makes low-energy-proton
///                 upsets collapse with Vdd while fast particles retain a
///                 rare-event tail. **Default everywhere.**
///
/// All samples are clamped to [0, available energy]. The formulas live in
/// phys::EnergyLoss (stopping.hpp); the functions below call into it.

#include "finser/phys/material.hpp"
#include "finser/phys/particle.hpp"
#include "finser/stats/rng.hpp"

namespace finser::phys {

/// Which fluctuation model to apply around the mean energy loss.
enum class StragglingModel {
  kNone,
  kGaussian,
  kMoyal,
  kAuto,
};

/// Vavilov significance parameter κ = ξ / T_max for a path of \p length_nm.
double vavilov_kappa(Species s, double e_mev, double length_nm, const Material& m);

/// Bohr straggling standard deviation [MeV] for a path of \p length_nm.
double bohr_sigma_mev(Species s, double e_mev, double length_nm, const Material& m);

/// Landau/Moyal scale parameter ξ [MeV] for a path of \p length_nm.
double landau_xi_mev(Species s, double e_mev, double length_nm, const Material& m);

/// Sample the actual energy loss around \p mean_loss_mev for a segment of
/// \p length_nm, clamped to [0, e_mev].
double sample_energy_loss(StragglingModel model, stats::Rng& rng, Species s,
                          double e_mev, double mean_loss_mev, double length_nm,
                          const Material& m);

}  // namespace finser::phys
