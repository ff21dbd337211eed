#include "finser/phys/particle.hpp"

#include <cmath>

#include "finser/util/constants.hpp"
#include "finser/util/error.hpp"
#include "finser/util/units.hpp"

namespace finser::phys {

using util::kAlphaMassMeV;
using util::kProtonMassMeV;
using util::kSpeedOfLightCmPerS;

double mass_mev(Species s) {
  switch (s) {
    case Species::kProton: return kProtonMassMeV;
    case Species::kAlpha: return kAlphaMassMeV;
    case Species::kSiRecoil: return 26053.2;  // 28Si nuclear rest energy.
    case Species::kMgRecoil: return 23258.0;  // 25Mg nuclear rest energy.
    case Species::kNeutron: return 939.565;
  }
  return kProtonMassMeV;
}

double charge_number(Species s) {
  switch (s) {
    case Species::kProton: return 1.0;
    case Species::kAlpha: return 2.0;
    case Species::kSiRecoil: return 14.0;
    case Species::kMgRecoil: return 12.0;
    case Species::kNeutron: return 0.0;
  }
  return 1.0;
}

std::string_view species_name(Species s) {
  switch (s) {
    case Species::kProton: return "proton";
    case Species::kAlpha: return "alpha";
    case Species::kSiRecoil: return "Si-recoil";
    case Species::kMgRecoil: return "Mg-recoil";
    case Species::kNeutron: return "neutron";
  }
  return "unknown";
}

double gamma(Species s, double e_mev) {
  FINSER_REQUIRE(e_mev >= 0.0, "gamma: negative kinetic energy");
  return lorentz_gamma(e_mev, mass_mev(s));
}

double beta(Species s, double e_mev) { return beta_from_gamma(gamma(s, e_mev)); }

double beta_gamma(Species s, double e_mev) {
  const double g = gamma(s, e_mev);
  return std::sqrt(g * g - 1.0);
}

double speed_cm_per_s(Species s, double e_mev) {
  return beta(s, e_mev) * kSpeedOfLightCmPerS;
}

double max_energy_transfer_mev(Species s, double e_mev) {
  return max_energy_transfer_from_gamma(gamma(s, e_mev),
                                        util::kElectronMassMeV / mass_mev(s));
}

double passage_time_fs(Species s, double e_mev, double length_nm) {
  FINSER_REQUIRE(length_nm >= 0.0, "passage_time_fs: negative length");
  FINSER_REQUIRE(e_mev > 0.0, "passage_time_fs: particle at rest");
  const double v = speed_cm_per_s(s, e_mev);
  return util::s_to_fs(util::nm_to_cm(length_nm) / v);
}

}  // namespace finser::phys
