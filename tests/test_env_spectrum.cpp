#include <gtest/gtest.h>

#include <cmath>

#include "finser/env/spectrum.hpp"
#include "finser/util/error.hpp"

namespace finser::env {
namespace {

// ---------------------------------------------------------------------------
// Generic Spectrum behaviour
// ---------------------------------------------------------------------------

Spectrum toy_spectrum() {
  return Spectrum(phys::Species::kProton, "toy", {1.0, 10.0, 100.0},
                  {1.0, 0.1, 0.01});
}

TEST(Spectrum, DifferentialInterpolatesLogLog) {
  const Spectrum s = toy_spectrum();
  // Power law E^-1 between the points: at E = sqrt(10), J = 1/sqrt(10).
  EXPECT_NEAR(s.differential(std::sqrt(10.0)), 1.0 / std::sqrt(10.0), 1e-9);
  EXPECT_DOUBLE_EQ(s.differential(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.differential(200.0), 0.0);
}

TEST(Spectrum, IntegralFluxPositiveAndAdditive) {
  const Spectrum s = toy_spectrum();
  const double a = s.integral_flux(1.0, 10.0);
  const double b = s.integral_flux(10.0, 100.0);
  EXPECT_GT(a, 0.0);
  EXPECT_GT(b, 0.0);
  EXPECT_NEAR(a + b, s.total_flux(), 1e-12);
  EXPECT_THROW(s.integral_flux(10.0, 1.0), util::InvalidArgument);
}

TEST(Spectrum, NormalizeTotalFlux) {
  Spectrum s = toy_spectrum();
  s.normalize_total_flux(42.0);
  EXPECT_NEAR(s.total_flux(), 42.0, 1e-9);
  EXPECT_THROW(s.normalize_total_flux(0.0), util::InvalidArgument);
}

TEST(Spectrum, DiscretizeCoversRange) {
  const Spectrum s = toy_spectrum();
  const auto bins = s.discretize(1.0, 100.0, 10);
  ASSERT_EQ(bins.size(), 10u);
  EXPECT_NEAR(bins.front().e_lo_mev, 1.0, 1e-12);
  EXPECT_NEAR(bins.back().e_hi_mev, 100.0, 1e-9);
  double sum = 0.0;
  for (const auto& b : bins) {
    EXPECT_GT(b.e_rep_mev, b.e_lo_mev);
    EXPECT_LT(b.e_rep_mev, b.e_hi_mev);
    EXPECT_NEAR(b.e_rep_mev, std::sqrt(b.e_lo_mev * b.e_hi_mev), 1e-9);
    sum += b.integral_flux_per_cm2_s;
  }
  // Both sides integrate the same log-log interpolant with refined
  // trapezoids; boundary placement differs, hence the small tolerance.
  EXPECT_NEAR(sum, s.total_flux(), 1e-3 * s.total_flux());
  EXPECT_THROW(s.discretize(1.0, 100.0, 0), util::InvalidArgument);
  EXPECT_THROW(s.discretize(-1.0, 100.0, 4), util::InvalidArgument);
}

TEST(Spectrum, SampleEnergyFollowsDensity) {
  const Spectrum s = toy_spectrum();
  stats::Rng rng(4);
  constexpr int kSamples = 40000;
  int below = 0;        // under the spectrum's 1 MeV floor
  int above = 0;        // at or over its 100 MeV ceiling
  int low_decade = 0;   // in [1, 10) MeV
  for (int i = 0; i < kSamples; ++i) {
    const double e = s.sample_energy(rng);
    if (e < 1.0) {
      ++below;
    } else if (e >= 100.0) {
      ++above;
    } else if (e < 10.0) {
      ++low_decade;
    }
  }
  const double expected0 = s.integral_flux(1.0, 10.0) / s.total_flux();
  EXPECT_NEAR(static_cast<double>(low_decade) / kSamples, expected0, 0.02);
  EXPECT_EQ(below, 0);
  EXPECT_EQ(above, 0);
}

TEST(Spectrum, RejectsBadConstruction) {
  EXPECT_THROW(Spectrum(phys::Species::kProton, "x", {1.0}, {1.0}),
               util::InvalidArgument);
  EXPECT_THROW(Spectrum(phys::Species::kProton, "x", {1.0, 2.0}, {1.0}),
               util::InvalidArgument);
  EXPECT_THROW(Spectrum(phys::Species::kProton, "x", {1.0, 2.0}, {1.0, 0.0}),
               util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Built-in environments (paper Fig. 2)
// ---------------------------------------------------------------------------

TEST(SeaLevelProtons, SpeciesAndRange) {
  const Spectrum p = sea_level_protons();
  EXPECT_EQ(p.species(), phys::Species::kProton);
  EXPECT_LE(p.e_min_mev(), 0.1);   // Covers the direct-ionization band.
  EXPECT_GE(p.e_max_mev(), 1e6);   // Fig. 2a extends to 10^7 MeV.
}

TEST(SeaLevelProtons, SteepHighEnergyCollapse) {
  const Spectrum p = sea_level_protons();
  // ~12 orders of magnitude between the plateau and 10^7 MeV (Fig. 2a).
  EXPECT_GT(p.differential(10.0) / p.differential(1e6), 1e6);
  // Differential flux decreasing beyond ~100 MeV.
  double prev = p.differential(100.0);
  for (double e = 300.0; e <= 1e6; e *= 3.0) {
    const double j = p.differential(e);
    EXPECT_LT(j, prev);
    prev = j;
  }
}

TEST(SeaLevelProtons, LowEnergyFluxRisesTowardMeV) {
  const Spectrum p = sea_level_protons();
  EXPECT_LT(p.differential(0.1), p.differential(1.0));
}

TEST(PackageAlphas, NormalizedEmissionRate) {
  const Spectrum a = package_alphas();
  // Paper assumption: 0.001 alpha/(cm^2 h).
  EXPECT_NEAR(a.total_flux() * 3600.0, 0.001, 1e-9);
  EXPECT_EQ(a.species(), phys::Species::kAlpha);
  EXPECT_LE(a.e_min_mev(), 0.5);
  EXPECT_NEAR(a.e_max_mev(), 10.0, 1e-12);
}

TEST(PackageAlphas, CustomEmissionRateScales) {
  const Spectrum a = package_alphas(0.01);
  EXPECT_NEAR(a.total_flux() * 3600.0, 0.01, 1e-9);
  EXPECT_THROW(package_alphas(0.0), util::InvalidArgument);
}

TEST(PackageAlphas, SpectrumRisesTowardEightMeV) {
  const Spectrum a = package_alphas();
  EXPECT_GT(a.differential(8.0), a.differential(1.0));
  EXPECT_GT(a.differential(8.0), a.differential(10.0));  // Drop past the peak.
}

TEST(SeaLevelNeutrons, AnchoredToJedecIntegralFlux) {
  const Spectrum n = sea_level_neutrons();
  EXPECT_EQ(n.species(), phys::Species::kNeutron);
  // The canonical ~13 n/(cm^2 h) above 10 MeV.
  EXPECT_NEAR(n.integral_flux(10.0, 1000.0) * 3600.0, 13.0, 0.1);
  // Differential flux falls steeply with energy.
  EXPECT_GT(n.differential(1.0), 10.0 * n.differential(100.0));
}

TEST(SeaLevelNeutrons, SamplingRespectsSpectrumWeights) {
  const Spectrum n = sea_level_neutrons();
  stats::Rng rng(17);
  int in_range = 0;  // in [0.1, 1000) MeV
  int below = 0;     // in [0.1, 10) MeV
  for (int i = 0; i < 30000; ++i) {
    const double e = n.sample_energy(rng);
    if (e < 0.1 || e >= 1000.0) continue;
    ++in_range;
    if (e < 10.0) ++below;
  }
  // Most sampled neutrons are below 10 MeV (the spectrum is bottom-heavy).
  EXPECT_GT(static_cast<double>(below) / in_range, 0.6);
}

TEST(FluxRatio, ProtonsVastlyOutnumberAlphas) {
  // The paper's Fig. 9 crossover requires the proton flux in the direct-
  // ionization band to exceed the alpha emission rate by orders of magnitude.
  const double p = sea_level_protons().integral_flux(0.1, 100.0);
  const double a = package_alphas().total_flux();
  EXPECT_GT(p / a, 100.0);
  EXPECT_LT(p / a, 1e5);
}

}  // namespace
}  // namespace finser::env
