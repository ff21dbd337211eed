#include "finser/phys/stopping.hpp"

#include <algorithm>
#include <cmath>

#include "finser/util/constants.hpp"
#include "finser/util/error.hpp"
#include "finser/util/units.hpp"

namespace finser::phys {

namespace {

using util::kAvogadro;
using util::kBetheK;
using util::kElectronMassMeV;
using util::kSiliconA;
using util::kSiliconZ;

// Calibration constants of the low-energy proton branch (see header).
// S_low = kVbLow * sqrt(E_keV); S_high = (kVbB / E_keV) * ln(1 + kVbC/E_keV
// + kVbD * E_keV); both in MeV·cm²/g for silicon, scaled by Z/A for other
// targets. Combined harmonically (Varelas–Biersack form).
constexpr double kVbLow = 90.0;
constexpr double kVbB = 78434.0;
constexpr double kVbC = 220.0;
constexpr double kVbD = 0.014;

// Branch switch window [MeV]: VB below, Bethe above, log-blend between.
constexpr double kBlendLoMeV = 0.5;
constexpr double kBlendHiMeV = 1.0;

// Z/A of silicon, reference for the VB branch amplitude scaling.
const double kSiZOverA = kSiliconZ / kSiliconA;

// CSDA sub-stepping: lose at most 5 % of the running energy per step; a
// particle below 1 eV is considered stopped.
constexpr double kMaxFractionPerStep = 0.05;
constexpr double kMinEnergyMeV = 1e-6;

/// Euler–Mascheroni constant; Moyal mean offset is (gamma_E + ln 2)·xi.
constexpr double kMoyalMeanOffset = 0.5772156649015329 + 0.6931471805599453;

}  // namespace

EnergyLoss::EnergyLoss(Species s, const Material& m)
    : species_(s),
      z_(charge_number(s)),
      mass_(mass_mev(s)),
      me_over_m_(kElectronMassMeV / mass_mev(s)),
      density_(m.density_g_cm3),
      z_over_a_(m.z_over_a),
      bethe_k_z_over_a_(kBetheK * m.z_over_a),
      vb_scale_(m.z_over_a / kSiZOverA) {
  const double i_mev = util::ev_to_mev(m.mean_excitation_ev);
  bethe_i2_ = i_mev * i_mev;
  if (z_ == 0.0) return;  // Neutral particles: no Coulomb stopping.
  z_m23_ = std::pow(z_, -2.0 / 3.0);
  const double z1 = z_;
  const double m1 = mass_ / util::kProtonMassMeV;  // ~ amu
  const double z2 = m.z_nuclear;
  const double m2 = m.a_nuclear;
  const double zpow = std::pow(z1, 0.23) + std::pow(z2, 0.23);
  eps_num_ = 32.53 * m2;
  eps_den_ = z1 * z2 * (m1 + m2) * zpow;
  sn_pref_ = 8.462 * z1 * z2 * m1 / ((m1 + m2) * zpow);
  sn_unit_ = m.a_nuclear * 1e15;
  lindhard_k_ = 0.133 * std::pow(z2, 2.0 / 3.0) / std::sqrt(m2);
}

/// Bethe–Bloch mass stopping power for a singly charged proton [MeV·cm²/g].
/// Valid above ~0.5 MeV where the logarithm is comfortably positive for Si.
double EnergyLoss::bethe_proton(double e_mev) const {
  const double g = lorentz_gamma(e_mev, util::kProtonMassMeV);
  const double b = beta_from_gamma(g);
  const double b2 = b * b;
  const double me_over_m = kElectronMassMeV / util::kProtonMassMeV;
  const double two_me_b2g2 = 2.0 * kElectronMassMeV * b2 * g * g;
  const double t_max =
      two_me_b2g2 / (1.0 + 2.0 * g * me_over_m + me_over_m * me_over_m);
  const double arg = two_me_b2g2 * t_max / bethe_i2_;
  const double bracket = 0.5 * std::log(arg) - b2;
  return bethe_k_z_over_a_ / b2 * std::max(bracket, 0.0);
}

/// Varelas–Biersack low-energy proton branch [MeV·cm²/g], Si-calibrated and
/// amplitude-scaled by the target's electron density (Z/A ratio).
double EnergyLoss::vb_proton(double e_mev) const {
  const double e_kev = util::mev_to_kev(e_mev);
  if (e_kev <= 0.0) return 0.0;
  const double s_low = kVbLow * std::sqrt(e_kev) * vb_scale_;
  const double s_high =
      (kVbB / e_kev) * std::log(1.0 + kVbC / e_kev + kVbD * e_kev) * vb_scale_;
  return 1.0 / (1.0 / s_low + 1.0 / s_high);
}

double EnergyLoss::proton_electronic(double e_mev) const {
  if (e_mev <= 0.0) return 0.0;
  if (e_mev >= kBlendHiMeV) return bethe_proton(e_mev);
  if (e_mev <= kBlendLoMeV) return vb_proton(e_mev);
  // Log-energy linear blend keeps the joint C0-smooth and monotone-ish.
  const double w = (std::log(e_mev) - std::log(kBlendLoMeV)) /
                   (std::log(kBlendHiMeV) - std::log(kBlendLoMeV));
  return (1.0 - w) * vb_proton(e_mev) + w * bethe_proton(e_mev);
}

EnergyLoss::Terms EnergyLoss::at(double e_mev) const {
  FINSER_REQUIRE(e_mev >= 0.0, "energy loss: negative kinetic energy");
  Terms t;
  t.e_mev = e_mev;
  t.gamma = lorentz_gamma(e_mev, mass_);
  t.beta = beta_from_gamma(t.gamma);
  if (z_ == 0.0) return t;  // Neutral particles never acquire a charge.
  // Barkas-type neutralization z_eff = z * (1 - exp(-C·β·z^(-2/3))). The
  // textbook C = 125 underestimates helium stopping by ~25 % against ASTAR
  // silicon; C = 200 matches ASTAR within a few percent across 0.1-10 MeV
  // (1.33e3 vs 1.37e3 MeV·cm²/g at 1 MeV; 627 vs 590 at 5 MeV).
  t.z_eff = z_ * (1.0 - std::exp(-200.0 * t.beta * z_m23_));
  if (e_mev == 0.0) return t;

  if (species_ == Species::kProton) {
    t.s_el = proton_electronic(e_mev);
  } else {
    // Heavy charged particles: velocity scaling — evaluate the proton curve
    // at the proton energy of equal velocity and multiply by the squared
    // effective (Barkas-neutralized) charge. Exact for alphas to ASTAR
    // within a few percent; for keV-MeV Si/Mg recoils it lands in the
    // velocity-proportional LSS regime with the right shape and magnitude
    // to a few tens of percent (adequate: recoil ranges are << fin pitch,
    // so deposits are locally absorbed either way).
    const double e_p = e_mev * util::kProtonMassMeV / mass_;
    t.s_el = t.z_eff * t.z_eff * proton_electronic(e_p);
  }

  // ZBL universal nuclear stopping in reduced units.
  const double e_kev = util::mev_to_kev(e_mev);
  t.eps = eps_num_ * e_kev / eps_den_;
  const double eps = t.eps;
  if (eps <= 0.0) return t;
  double sn_reduced;
  if (eps <= 30.0) {
    sn_reduced = std::log1p(1.1383 * eps) /
                 (2.0 * (eps + 0.01321 * std::pow(eps, 0.21226) +
                         0.19593 * std::sqrt(eps)));
  } else {
    sn_reduced = std::log(eps) / (2.0 * eps);
  }
  // eV per (1e15 atoms/cm^2), converted to MeV·cm²/g.
  const double sn_ev = sn_pref_ * sn_reduced;
  t.s_nuc = sn_ev * kAvogadro / sn_unit_ * 1e-6;
  return t;
}

double EnergyLoss::lindhard_partition(const Terms& t) const {
  if (t.e_mev == 0.0 || z_ == 0.0) return 0.0;
  // Lindhard-Robinson partition: the damage (non-ionizing) share of a
  // recoil's energy is E/(1 + k·g(ε)), so the ionizing efficiency of the
  // nuclear energy-loss channel is q = k·g(ε)/(1 + k·g(ε)), with
  // g(ε) = 3ε^0.15 + 0.7ε^0.6 + ε and k = 0.133 Z^(2/3)/A^(1/2) of the
  // recoiling medium, at the projectile's ZBL reduced energy. Fast recoils
  // ionize almost fully (q → 1); slow ones mostly make phonons (q → 0).
  // 100 keV Si in Si: q ≈ 0.49, matching the classic ~50 % partition.
  const double eps = t.eps;
  const double g = 3.0 * std::pow(eps, 0.15) + 0.7 * std::pow(eps, 0.6) + eps;
  return lindhard_k_ * g / (1.0 + lindhard_k_ * g);
}

double EnergyLoss::ionizing_fraction(const Terms& t) const {
  const double s_tot = t.s_el + t.s_nuc;
  if (s_tot <= 0.0) return 1.0;
  return (t.s_el + lindhard_partition(t) * t.s_nuc) / s_tot;
}

double EnergyLoss::csda_loss(const Terms& entry, double length_nm) const {
  FINSER_REQUIRE(length_nm >= 0.0, "csda_energy_loss: negative path");
  double e = entry.e_mev;
  double remaining_cm = util::nm_to_cm(length_nm);
  // The first step starts from the entry terms; later steps and every
  // midpoint evaluate fresh.
  double s_lin = linear_stopping(entry);
  while (remaining_cm > 0.0 && e > kMinEnergyMeV) {
    if (s_lin <= 0.0) break;
    // Step small enough to lose at most 5% of the running energy.
    double step = std::min(remaining_cm, kMaxFractionPerStep * e / s_lin);
    if (step <= 0.0) break;
    // Midpoint refinement of the loss over the step.
    const double e_mid = std::max(e - 0.5 * step * s_lin, kMinEnergyMeV);
    const double s_mid = linear_stopping(at(e_mid));
    const double de = std::min(e, step * std::max(s_mid, 0.0));
    e -= de;
    remaining_cm -= step;
    if (remaining_cm > 0.0 && e > kMinEnergyMeV) {
      s_lin = linear_stopping(at(e));
    }
  }
  return entry.e_mev - std::max(e, 0.0);
}

double EnergyLoss::bohr_sigma_mev(const Terms& t, double length_nm) const {
  FINSER_REQUIRE(length_nm >= 0.0, "bohr_sigma_mev: negative path");
  // Ω² = 4π N_A r_e² (m_e c²)² z² (Z/A) · X = 0.1569 z² (Z/A) X [MeV²],
  // X in g/cm² (Bohr 1915; non-relativistic form, adequate below 100 MeV).
  const double areal = util::nm_to_cm(length_nm) * density_;
  const double var = 0.1569 * t.z_eff * t.z_eff * z_over_a_ * areal;
  return std::sqrt(std::max(var, 0.0));
}

double EnergyLoss::landau_xi_mev(const Terms& t, double length_nm) const {
  FINSER_REQUIRE(length_nm >= 0.0, "landau_xi_mev: negative path");
  const double b = t.beta;
  if (b <= 0.0) return 0.0;
  // ξ = (K/2) z² (Z/A) X / β²  [MeV].
  const double areal = util::nm_to_cm(length_nm) * density_;
  return 0.5 * kBetheK * t.z_eff * t.z_eff * z_over_a_ * areal / (b * b);
}

double EnergyLoss::vavilov_kappa(const Terms& t, double length_nm) const {
  const double t_max = max_energy_transfer_from_gamma(t.gamma, me_over_m_);
  if (t_max <= 0.0) return 1e30;
  return landau_xi_mev(t, length_nm) / t_max;
}

double EnergyLoss::sample_loss(StragglingModel model, stats::Rng& rng,
                               const Terms& t, double mean_loss_mev,
                               double length_nm) const {
  FINSER_REQUIRE(mean_loss_mev >= 0.0, "sample_energy_loss: negative mean loss");
  if (model == StragglingModel::kAuto) {
    // Vavilov regime selection: κ ≳ 1 → near-Gaussian; κ ≪ 1 → Landau tail.
    model = vavilov_kappa(t, length_nm) >= 0.7 ? StragglingModel::kGaussian
                                                : StragglingModel::kMoyal;
  }
  double loss = mean_loss_mev;
  switch (model) {
    case StragglingModel::kNone:
      break;
    case StragglingModel::kGaussian: {
      const double sigma = bohr_sigma_mev(t, length_nm);
      loss = rng.normal(mean_loss_mev, sigma);
      break;
    }
    case StragglingModel::kMoyal: {
      const double xi = landau_xi_mev(t, length_nm);
      if (xi > 0.0) {
        // Moyal variate: X = -ln(Z²) with Z ~ N(0,1) has the Moyal density;
        // its mean is gamma_E + ln 2. Shift so the sample mean equals the
        // CSDA mean loss.
        double z;
        do {
          z = rng.normal();
        } while (z == 0.0);
        const double moyal = -std::log(z * z);
        loss = mean_loss_mev + xi * (moyal - kMoyalMeanOffset);
      }
      break;
    }
    case StragglingModel::kAuto:
      break;  // Unreachable: resolved to a concrete model above.
  }
  return std::clamp(loss, 0.0, t.e_mev);
}

// --- Free functions: thin calls into a temporary evaluator ------------------

double effective_charge(Species s, double e_mev) {
  // z_eff depends on the projectile only; any target material will do.
  return EnergyLoss(s, silicon()).at(e_mev).z_eff;
}

double electronic_stopping(Species s, double e_mev, const Material& m) {
  return EnergyLoss(s, m).at(e_mev).s_el;
}

double nuclear_stopping(Species s, double e_mev, const Material& m) {
  return EnergyLoss(s, m).at(e_mev).s_nuc;
}

double total_stopping(Species s, double e_mev, const Material& m) {
  const EnergyLoss::Terms t = EnergyLoss(s, m).at(e_mev);
  return t.s_el + t.s_nuc;
}

double linear_electronic_stopping(Species s, double e_mev, const Material& m) {
  return EnergyLoss(s, m).at(e_mev).s_el * m.density_g_cm3;
}

double lindhard_partition(Species s, double e_mev, const Material& m) {
  const EnergyLoss loss(s, m);
  return loss.lindhard_partition(loss.at(e_mev));
}

double ionizing_fraction(Species s, double e_mev, const Material& m) {
  const EnergyLoss loss(s, m);
  return loss.ionizing_fraction(loss.at(e_mev));
}

double csda_energy_loss(Species s, double e_mev, double length_nm,
                        const Material& m) {
  const EnergyLoss loss(s, m);
  return loss.csda_loss(loss.at(e_mev), length_nm);
}

double csda_range_um(Species s, double e_mev, const Material& m, double e_cut_mev) {
  FINSER_REQUIRE(e_cut_mev > 0.0, "csda_range_um: cutoff must be positive");
  if (e_mev <= e_cut_mev) return 0.0;
  const EnergyLoss loss(s, m);
  const auto inv_stopping = [&](double e) {
    const EnergyLoss::Terms t = loss.at(e);
    return 1.0 / ((t.s_el + t.s_nuc) * m.density_g_cm3);
  };
  // Integrate dx = dE / S(E) on a log-energy grid (trapezoid in log E).
  constexpr int kStepsPerDecade = 200;
  const double l_lo = std::log(e_cut_mev);
  const double l_hi = std::log(e_mev);
  const int n = std::max(8, static_cast<int>((l_hi - l_lo) / std::log(10.0) *
                                             kStepsPerDecade));
  double range_cm = 0.0;
  double prev_e = e_cut_mev;
  double prev_f = inv_stopping(prev_e);
  for (int i = 1; i <= n; ++i) {
    const double e = std::exp(l_lo + (l_hi - l_lo) * i / n);
    const double f = inv_stopping(e);
    range_cm += 0.5 * (prev_f + f) * (e - prev_e);
    prev_e = e;
    prev_f = f;
  }
  return util::cm_to_um(range_cm);
}

}  // namespace finser::phys
