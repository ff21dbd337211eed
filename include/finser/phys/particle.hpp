#pragma once
/// \file particle.hpp
/// \brief Particle species treated by the direct-ionization analysis.
///
/// The paper's scope (Sec. 3.1, Sec. 7) is direct ionization by low-energy
/// **protons** (atmospheric) and **alpha particles** (terrestrial, from
/// package contamination); neutron indirect ionization is explicitly left
/// to future work. Kinematics here are relativistic throughout, although
/// the energies of interest (< 100 MeV) are mildly relativistic at most.

#include <cmath>
#include <string_view>

#include "finser/util/constants.hpp"

namespace finser::phys {

/// Particle species treated by the transport machinery. Protons and alphas
/// ionize directly (the paper's scope); the silicon and magnesium recoils
/// are the charged secondaries of neutron interactions (the paper's stated
/// future work, implemented in phys/neutron.hpp).
enum class Species {
  kProton,
  kAlpha,
  kSiRecoil,  ///< 28Si primary knock-on atom (elastic n-Si scattering).
  kMgRecoil,  ///< 25Mg residual of the 28Si(n,alpha)25Mg reaction.
  kNeutron,   ///< Uncharged: zero stopping power; upsets only via secondaries.
};

/// Rest energy [MeV].
double mass_mev(Species s);

/// Charge number z (proton: 1, alpha: 2).
double charge_number(Species s);

/// Human-readable name ("proton" / "alpha").
std::string_view species_name(Species s);

/// Relativistic beta = v/c for kinetic energy \p e_mev (>= 0).
double beta(Species s, double e_mev);

/// Relativistic gamma for kinetic energy \p e_mev.
double gamma(Species s, double e_mev);

/// beta * gamma.
double beta_gamma(Species s, double e_mev);

/// Particle speed [cm/s].
double speed_cm_per_s(Species s, double e_mev);

/// Time to traverse \p length_nm at the current speed [fs]
/// (paper Eq. 1: the particle passage time through the fin).
double passage_time_fs(Species s, double e_mev, double length_nm);

/// Kinematic maximum energy transferable to a single electron [MeV]:
/// T_max = 2 m_e c² β²γ² / (1 + 2γ m_e/M + (m_e/M)²).
double max_energy_transfer_mev(Species s, double e_mev);

// The kinematic formulas behind the per-species functions above, written
// once: phys::EnergyLoss calls them with its precomputed rest energy and
// mass ratio, the functions above with the species' own.

/// γ = 1 + E/M for kinetic energy \p e_mev and rest energy \p rest_mev.
inline double lorentz_gamma(double e_mev, double rest_mev) {
  return 1.0 + e_mev / rest_mev;
}

/// β = √(1 − 1/γ²).
inline double beta_from_gamma(double g) { return std::sqrt(1.0 - 1.0 / (g * g)); }

/// T_max from γ and the electron-to-projectile mass ratio \p me_over_m.
inline double max_energy_transfer_from_gamma(double g, double me_over_m) {
  const double b2g2 = g * g - 1.0;
  return 2.0 * util::kElectronMassMeV * b2g2 /
         (1.0 + 2.0 * g * me_over_m + me_over_m * me_over_m);
}

}  // namespace finser::phys
