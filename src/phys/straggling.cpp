#include "finser/phys/straggling.hpp"

#include "finser/phys/stopping.hpp"

namespace finser::phys {

// Thin calls into a temporary phys::EnergyLoss, which holds the formulas.

double bohr_sigma_mev(Species s, double e_mev, double length_nm, const Material& m) {
  const EnergyLoss loss(s, m);
  return loss.bohr_sigma_mev(loss.at(e_mev), length_nm);
}

double landau_xi_mev(Species s, double e_mev, double length_nm, const Material& m) {
  const EnergyLoss loss(s, m);
  return loss.landau_xi_mev(loss.at(e_mev), length_nm);
}

double vavilov_kappa(Species s, double e_mev, double length_nm, const Material& m) {
  const EnergyLoss loss(s, m);
  return loss.vavilov_kappa(loss.at(e_mev), length_nm);
}

double sample_energy_loss(StragglingModel model, stats::Rng& rng, Species s,
                          double e_mev, double mean_loss_mev, double length_nm,
                          const Material& m) {
  const EnergyLoss loss(s, m);
  return loss.sample_loss(model, rng, loss.at(e_mev), mean_loss_mev, length_nm);
}

}  // namespace finser::phys
