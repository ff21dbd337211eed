#pragma once
/// \file stopping.hpp
/// \brief Stopping-power models (the analytic core of the Geant4 substitute).
///
/// The paper obtains per-fin energy deposition from Geant4 Monte-Carlo
/// transport. finser replaces that with analytic stopping powers:
///
///  * **Protons**: Bethe–Bloch above 1 MeV; below 0.5 MeV a
///    Varelas–Biersack-type interpolation between a velocity-proportional
///    (Lindhard–Scharff) term and a shaped high-energy term, with
///    coefficients calibrated to PSTAR silicon anchor points
///    (S(10 keV) ≈ 285, peak S(~80 keV) ≈ 530, S(0.5 MeV) ≈ 270,
///    S(1 MeV) ≈ 175 MeV·cm²/g); log-energy blend between the branches.
///  * **Alphas**: effective-charge velocity scaling of the proton curve,
///    S_α(E) = z_eff(β)² · S_p(E · m_p/m_α), with the Barkas effective
///    charge z_eff = 2·(1 − exp(−200·β·2^(−2/3))). Reproduces ASTAR silicon
///    within a few percent and — more importantly for this normalized
///    study — the correct Bragg-peak position (~0.7 MeV) and alpha/proton
///    ratio.
///  * **Nuclear stopping**: ZBL universal reduced stopping; counted as
///    *non-ionizing* energy loss (no e-h pairs), relevant only below
///    ~100 keV.
///
/// Every formula lives in one place, phys::EnergyLoss: an evaluator for one
/// (species, material) pair that computes the energy-independent factors
/// once and the energy-dependent terms once per energy (EnergyLoss::at).
/// The transport hot paths (Transporter, FinStrikeMc) hold evaluators; the
/// free functions below and in straggling.hpp are thin calls into a
/// temporary one.
///
/// All mass stopping powers are in MeV·cm²/g; linear stopping in MeV/cm.

#include "finser/phys/material.hpp"
#include "finser/phys/particle.hpp"
#include "finser/phys/straggling.hpp"
#include "finser/stats/rng.hpp"

namespace finser::phys {

/// Energy-loss evaluator for one (species, material) pair: stopping powers,
/// CSDA loss, straggling and the ionizing fraction, sharing every
/// energy-independent factor (z^(−2/3), m_e/M, the Bethe I², the ZBL ε and
/// Sₙ prefactors, the Lindhard k, …) across calls.
///
/// Bit identity is the contract: only sub-expressions that a formula
/// evaluates as a unit are precomputed and each formula keeps its operation
/// order, so sharing terms across calls changes no bit of any result.
/// Reordering any of this arithmetic is a physics change (docs/physics.md
/// §1.5).
class EnergyLoss {
 public:
  /// The energy-dependent terms at one kinetic energy, evaluated once and
  /// shared by a segment's first CSDA step, its straggling draw and the
  /// fin's ionizing fraction.
  struct Terms {
    double e_mev = 0.0;
    double gamma = 1.0;
    double beta = 0.0;
    double z_eff = 0.0;  ///< Barkas effective charge (material-independent).
    double s_el = 0.0;   ///< Electronic mass stopping power [MeV·cm²/g].
    double s_nuc = 0.0;  ///< Nuclear mass stopping power [MeV·cm²/g].
    double eps = 0.0;    ///< ZBL reduced energy (0 for neutral particles).
  };

  /// \p m is copied from; it need not outlive the evaluator.
  EnergyLoss(Species s, const Material& m);

  /// Terms at kinetic energy \p e_mev (>= 0).
  Terms at(double e_mev) const;

  /// CSDA electronic + nuclear loss [MeV] over \p length_nm, sub-stepped so
  /// no step loses more than ~5 % of the running energy; the first step
  /// reuses \p entry, later steps and midpoints evaluate fresh.
  double csda_loss(const Terms& entry, double length_nm) const;

  /// Straggled loss around \p mean_loss_mev for a segment of \p length_nm
  /// entered with terms \p t, clamped to [0, t.e_mev] (straggling.hpp).
  double sample_loss(StragglingModel model, stats::Rng& rng, const Terms& t,
                     double mean_loss_mev, double length_nm) const;

  /// (S_el + q_Lindhard·S_nuc) / (S_el + S_nuc).
  double ionizing_fraction(const Terms& t) const;

  /// Lindhard–Robinson ionizing efficiency of the nuclear channel.
  double lindhard_partition(const Terms& t) const;

  /// Bohr straggling σ [MeV] for a path of \p length_nm.
  double bohr_sigma_mev(const Terms& t, double length_nm) const;

  /// Landau/Moyal scale ξ [MeV] for a path of \p length_nm.
  double landau_xi_mev(const Terms& t, double length_nm) const;

  /// Vavilov κ = ξ / T_max for a path of \p length_nm.
  double vavilov_kappa(const Terms& t, double length_nm) const;

  /// Linear (electronic + nuclear) stopping power [MeV/cm].
  double linear_stopping(const Terms& t) const {
    return t.s_el * density_ + t.s_nuc * density_;
  }

 private:
  double proton_electronic(double e_mev) const;
  double bethe_proton(double e_mev) const;
  double vb_proton(double e_mev) const;

  Species species_;
  // Projectile.
  double z_ = 0.0;          ///< Charge number.
  double mass_ = 0.0;       ///< Rest energy [MeV].
  double z_m23_ = 0.0;      ///< z^(−2/3) (0 for neutral particles).
  double me_over_m_ = 0.0;  ///< m_e / M.
  // Target.
  double density_ = 0.0;
  double z_over_a_ = 0.0;
  double bethe_k_z_over_a_ = 0.0;  ///< K · Z/A.
  double bethe_i2_ = 0.0;          ///< I² [MeV²].
  double vb_scale_ = 0.0;          ///< (Z/A) / (Z/A)_Si.
  // ZBL nuclear stopping and the Lindhard partition.
  double eps_num_ = 0.0;  ///< 32.53 M₂.
  double eps_den_ = 0.0;  ///< Z₁ Z₂ (M₁+M₂)(Z₁^0.23 + Z₂^0.23).
  double sn_pref_ = 0.0;  ///< 8.462 Z₁ Z₂ M₁ / ((M₁+M₂)(Z₁^0.23 + Z₂^0.23)).
  double sn_unit_ = 0.0;  ///< M₂ · 1e15.
  double lindhard_k_ = 0.0;  ///< 0.133 Z₂^(2/3) / √M₂.
};

/// Electronic (ionizing) mass stopping power [MeV·cm²/g].
double electronic_stopping(Species s, double e_mev, const Material& m);

/// ZBL universal nuclear (non-ionizing) mass stopping power [MeV·cm²/g].
double nuclear_stopping(Species s, double e_mev, const Material& m);

/// Electronic + nuclear mass stopping power [MeV·cm²/g].
double total_stopping(Species s, double e_mev, const Material& m);

/// Linear electronic stopping power [MeV/cm] = mass stopping × density.
double linear_electronic_stopping(Species s, double e_mev, const Material& m);

/// Electronic + nuclear energy loss [MeV] over a path of \p length_nm
/// through \p m in the continuous-slowing-down approximation, sub-stepped so
/// that no step loses more than ~5 % of the running energy. Clamped to at
/// most \p e_mev.
double csda_energy_loss(Species s, double e_mev, double length_nm, const Material& m);

/// CSDA range [um]: path length to slow from \p e_mev down to \p e_cut_mev.
double csda_range_um(Species s, double e_mev, const Material& m,
                     double e_cut_mev = 1e-3);

/// Barkas-style effective charge for species \p s at kinetic energy \p e_mev.
double effective_charge(Species s, double e_mev);

/// Lindhard-Robinson ionization efficiency of the nuclear energy-loss
/// channel for species \p s in medium \p m: the fraction of nuclear
/// (recoil-cascade) energy that ends up as ionization rather than phonons.
/// Fast recoils → 1, slow recoils → 0; ~0.49 for 100 keV Si in Si.
double lindhard_partition(Species s, double e_mev, const Material& m);

/// Overall ionizing fraction of the local energy loss at \p e_mev:
/// (S_el + q_Lindhard·S_nuc) / (S_el + S_nuc). ≈1 for protons/alphas above
/// 100 keV; substantially below 1 for slow heavy recoils.
double ionizing_fraction(Species s, double e_mev, const Material& m);

}  // namespace finser::phys
