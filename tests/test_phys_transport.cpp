#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "finser/phys/collection.hpp"
#include "finser/phys/fin_mc.hpp"
#include "finser/phys/straggling.hpp"
#include "finser/phys/stopping.hpp"
#include "finser/phys/track.hpp"
#include "finser/sram/layout.hpp"
#include "finser/stats/direction.hpp"
#include "finser/stats/summary.hpp"
#include "finser/util/error.hpp"
#include "finser/util/units.hpp"

namespace finser::phys {
namespace {

const Material& si = silicon();

// ---------------------------------------------------------------------------
// Straggling
// ---------------------------------------------------------------------------

TEST(Straggling, BohrSigmaScalesWithSqrtLength) {
  const double s1 = bohr_sigma_mev(Species::kProton, 1.0, 10.0, si);
  const double s4 = bohr_sigma_mev(Species::kProton, 1.0, 40.0, si);
  EXPECT_NEAR(s4 / s1, 2.0, 1e-9);
  EXPECT_GT(s1, 0.0);
}

TEST(Straggling, XiScalesLinearlyWithLength) {
  const double x1 = landau_xi_mev(Species::kProton, 5.0, 10.0, si);
  const double x3 = landau_xi_mev(Species::kProton, 5.0, 30.0, si);
  EXPECT_NEAR(x3 / x1, 3.0, 1e-9);
}

TEST(Straggling, KappaRegimes) {
  // Slow proton in a fin: many soft collisions -> kappa >> 1 (Gaussian).
  EXPECT_GT(vavilov_kappa(Species::kProton, 0.2, 26.0, si), 1.0);
  // Fast proton: rare hard collisions -> kappa << 1 (Landau/Moyal).
  EXPECT_LT(vavilov_kappa(Species::kProton, 50.0, 26.0, si), 0.1);
}

TEST(Straggling, NoneModelIsDeterministic) {
  stats::Rng rng(5);
  const double loss = sample_energy_loss(StragglingModel::kNone, rng,
                                         Species::kProton, 1.0, 0.01, 10.0, si);
  EXPECT_DOUBLE_EQ(loss, 0.01);
}

TEST(Straggling, SamplesClampedToAvailableEnergy) {
  stats::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const double loss =
        sample_energy_loss(StragglingModel::kGaussian, rng, Species::kProton,
                           0.002, 0.0019, 26.0, si);
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, 0.002);
  }
}

TEST(Straggling, GaussianMeanMatches) {
  stats::Rng rng(7);
  stats::RunningStats s;
  const double mean = 0.003;
  for (int i = 0; i < 20000; ++i) {
    s.add(sample_energy_loss(StragglingModel::kGaussian, rng, Species::kProton,
                             1.0, mean, 26.0, si));
  }
  EXPECT_NEAR(s.mean(), mean, 5.0 * s.stderr_of_mean() + 1e-5);
}

TEST(Straggling, MoyalMeanMatchesAndIsSkewed) {
  stats::Rng rng(8);
  stats::RunningStats s;
  // Use the physically consistent CSDA mean so the Moyal scale xi and the
  // mean belong to the same segment.
  const double e = 50.0;
  const double mean = csda_energy_loss(Species::kProton, e, 26.0, si);
  double max_seen = 0.0;
  for (int i = 0; i < 30000; ++i) {
    const double x = sample_energy_loss(StragglingModel::kMoyal, rng,
                                        Species::kProton, e, mean, 26.0, si);
    s.add(x);
    max_seen = std::max(max_seen, x);
  }
  EXPECT_NEAR(s.mean(), mean, 8.0 * s.stderr_of_mean() + 1e-6);
  EXPECT_GT(max_seen, 2.0 * mean);  // Heavy upper tail (delta rays).
}

TEST(Straggling, AutoSelectsRegimeByKappa) {
  // At low energy the auto model must behave like Gaussian (no heavy tail):
  // the 99.9th percentile stays within ~4 sigma of the mean.
  stats::Rng rng(9);
  const double e = 0.2;
  const double mean = csda_energy_loss(Species::kProton, e, 26.0, si);
  const double sigma = bohr_sigma_mev(Species::kProton, e, 26.0, si);
  double max_seen = 0.0;
  for (int i = 0; i < 20000; ++i) {
    max_seen = std::max(max_seen, sample_energy_loss(StragglingModel::kAuto, rng,
                                                     Species::kProton, e, mean,
                                                     26.0, si));
  }
  EXPECT_LT(max_seen, mean + 6.0 * sigma);
}

TEST(Straggling, RejectsNegativeInputs) {
  stats::Rng rng(10);
  EXPECT_THROW(bohr_sigma_mev(Species::kProton, 1.0, -1.0, si),
               util::InvalidArgument);
  EXPECT_THROW(sample_energy_loss(StragglingModel::kNone, rng, Species::kProton,
                                  1.0, -0.1, 10.0, si),
               util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Collection model (paper Eqs. 1-3)
// ---------------------------------------------------------------------------

TEST(Collection, TransitTimePaperEq2) {
  // Paper: tau > 10 fs for the Fig. 3a transistor at Vdd = 1 V, with
  // L = 20 nm and mu_e = 400 cm^2/Vs giving exactly 10 fs.
  FinTechnology tech;
  EXPECT_NEAR(transit_time_fs(tech, 1.0), 10.0, 1e-9);
  EXPECT_NEAR(transit_time_fs(tech, 0.7), 10.0 / 0.7, 1e-9);
  EXPECT_THROW(transit_time_fs(tech, 0.0), util::InvalidArgument);
}

TEST(Collection, PassageMuchShorterThanTransit) {
  // The separation tau_p << tau justifies the instantaneous-generation
  // assumption (paper Sec. 3.3).
  FinTechnology tech;
  const double tau = transit_time_fs(tech, 1.0);
  const double tau_p = passage_time_fs(Species::kAlpha, 5.0, tech.w_fin_nm);
  EXPECT_LT(tau_p * 5.0, tau);
}

TEST(Collection, EhPairsFromEnergy) {
  EXPECT_NEAR(eh_pairs_from_energy(3.6e-6, si), 1.0, 1e-9);
  EXPECT_NEAR(eh_pairs_from_energy(1.0, si), 277778.0, 1.0);
  EXPECT_DOUBLE_EQ(eh_pairs_from_energy(1.0, silicon_dioxide()), 0.0);
  EXPECT_THROW(eh_pairs_from_energy(-1.0, si), util::InvalidArgument);
}

TEST(Collection, ChargeFromPairs) {
  // 1 fC = 6242 electrons; 625 pairs ≈ 0.1001 fC.
  EXPECT_NEAR(charge_fc_from_pairs(625.0), 625.0 * 1.602176634e-4, 1e-12);
  EXPECT_NEAR(charge_fc_from_pairs(6241.5), 1.0, 1e-3);
  EXPECT_DOUBLE_EQ(charge_fc_from_pairs(0.0), 0.0);
}

TEST(Collection, DriftPulseChargeConsistency) {
  FinTechnology tech;
  const double pairs = 1000.0;
  const CurrentPulse p = drift_pulse(pairs, tech, 0.8);
  EXPECT_NEAR(p.width_fs, transit_time_fs(tech, 0.8), 1e-12);
  EXPECT_NEAR(p.charge_fc(), charge_fc_from_pairs(pairs), 1e-9);
  EXPECT_GT(p.amplitude_a, 0.0);
}

// ---------------------------------------------------------------------------
// Track transport
// ---------------------------------------------------------------------------

geom::BoxSet single_fin() {
  geom::BoxSet set;
  set.add({{0, 0, 0}, {10, 20, 26}});
  return set;
}

TEST(Transport, StraightThroughDepositMatchesCsda) {
  const geom::BoxSet fins = single_fin();
  Transporter::Config cfg;
  cfg.straggling = StragglingModel::kNone;
  Transporter t(fins, cfg);
  stats::Rng rng(1);

  const geom::Ray ray{{5, 10, 50}, {0, 0, -1}};
  const auto res = t.transport(ray, Species::kAlpha, 2.0, rng);
  ASSERT_EQ(res.deposits.size(), 1u);
  EXPECT_NEAR(res.deposits[0].path_nm, 26.0, 1e-9);
  const double expected = csda_energy_loss(Species::kAlpha, 2.0, 26.0, si);
  EXPECT_NEAR(res.deposits[0].energy_mev, expected, 0.02 * expected);
  EXPECT_NEAR(res.deposits[0].eh_pairs,
              eh_pairs_from_energy(res.deposits[0].energy_mev, si),
              res.deposits[0].eh_pairs * 0.05 + 1.0);
}

TEST(Transport, EnergyConservation) {
  const geom::BoxSet fins = single_fin();
  Transporter::Config cfg;
  cfg.straggling = StragglingModel::kNone;
  Transporter t(fins, cfg);
  stats::Rng rng(2);
  const geom::Ray ray{{5, 10, 50}, {0, 0, -1}};
  const double e0 = 1.0;
  const auto res = t.transport(ray, Species::kProton, e0, rng);
  double deposited = 0.0;
  for (const auto& d : res.deposits) deposited += d.energy_mev;
  EXPECT_LE(deposited + res.exit_energy_mev, e0 + 1e-12);
}

TEST(Transport, MissProducesNoDeposit) {
  const geom::BoxSet fins = single_fin();
  Transporter t(fins);
  stats::Rng rng(3);
  const auto res = t.transport({{100, 100, 50}, {0, 0, -1}}, Species::kAlpha,
                               5.0, rng);
  EXPECT_TRUE(res.deposits.empty());
  EXPECT_NEAR(res.exit_energy_mev, 5.0, 1e-9);
}

TEST(Transport, LowEnergyParticleStopsInside) {
  // A 10 keV proton has ~0.15 um range; a 500 nm silicon slab absorbs it.
  geom::BoxSet fins;
  fins.add({{0, 0, 0}, {100, 100, 500}});
  Transporter::Config cfg;
  cfg.straggling = StragglingModel::kNone;
  Transporter t(fins, cfg);
  stats::Rng rng(4);
  const auto res = t.transport({{50, 50, 501}, {0, 0, -1}}, Species::kProton,
                               0.01, rng);
  EXPECT_TRUE(res.stopped_inside);
  EXPECT_DOUBLE_EQ(res.exit_energy_mev, 0.0);
  ASSERT_EQ(res.deposits.size(), 1u);
  // Essentially the whole kinetic energy ionizes (minus the nuclear share).
  EXPECT_GT(res.deposits[0].energy_mev, 0.008);
}

TEST(Transport, MultiFinDepositsAreOrderedAndDegraded) {
  geom::BoxSet fins;
  fins.add({{0, 0, 0}, {10, 20, 26}});
  fins.add({{100, 0, 0}, {110, 20, 26}});
  Transporter::Config cfg;
  cfg.straggling = StragglingModel::kNone;
  Transporter t(fins, cfg);
  stats::Rng rng(5);
  // Horizontal ray through both fins at mid-height, low energy so dE/dx
  // grows as the particle slows (below the Bragg peak the loss drops).
  const geom::Ray ray{{-5, 10, 13}, {1, 0, 0}};
  const auto res = t.transport(ray, Species::kAlpha, 3.0, rng);
  ASSERT_EQ(res.deposits.size(), 2u);
  EXPECT_EQ(res.deposits[0].fin_id, 0u);
  EXPECT_EQ(res.deposits[1].fin_id, 1u);
  // 3 MeV alpha is above the Bragg peak: slowing increases dE/dx, so the
  // second fin receives more than the first.
  EXPECT_GT(res.deposits[1].energy_mev, res.deposits[0].energy_mev);
}

TEST(Transport, RejectsBadInput) {
  const geom::BoxSet fins = single_fin();
  Transporter t(fins);
  stats::Rng rng(6);
  EXPECT_THROW(t.transport({{0, 0, 10}, {0, 0, -2}}, Species::kAlpha, 5.0, rng),
               util::InvalidArgument);  // Non-unit direction.
  EXPECT_THROW(t.transport({{0, 0, 10}, {0, 0, -1}}, Species::kAlpha, 0.0, rng),
               util::InvalidArgument);
  geom::BoxSet empty;
  EXPECT_THROW(Transporter bad(empty), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Shared-state kernel == per-call functions, bit for bit
// ---------------------------------------------------------------------------
//
// Transporter and FinStrikeMc hold one EnergyLoss evaluator per (species,
// material) and share each energy's terms across a segment's first CSDA
// step, its straggling draw and the ionizing fraction. The reference loops
// below recompute everything per call through the public free functions
// (and walk the brute-force BoxSet::query), drawing from the same Rng
// stream; every output must match exactly.

struct KernelCase {
  Species species;
  double e_mev;
};

// Energies spanning the proton curve's VB branch, its 0.5-1 MeV blend and
// Bethe (at the proton-equivalent energy for heavy species), and ZBL
// reduced energies on both sides of the eps = 30 switch.
const KernelCase kKernelCases[] = {
    {Species::kProton, 0.02},   // VB, eps <= 30
    {Species::kProton, 0.3},    // VB, eps > 30
    {Species::kProton, 0.7},    // blend
    {Species::kProton, 2.0},    // Bethe
    {Species::kProton, 30.0},   // Bethe
    {Species::kAlpha, 0.05},    // VB, eps <= 30
    {Species::kAlpha, 1.0},     // VB, eps > 30
    {Species::kAlpha, 3.0},     // blend
    {Species::kAlpha, 8.0},     // Bethe
    {Species::kSiRecoil, 0.2},  // eps <= 30
    {Species::kSiRecoil, 5.0},  // eps > 30
    {Species::kMgRecoil, 0.2},  // eps <= 30
    {Species::kMgRecoil, 3.0},  // eps > 30
};

const StragglingModel kAllModels[] = {StragglingModel::kNone,
                                      StragglingModel::kGaussian,
                                      StragglingModel::kMoyal,
                                      StragglingModel::kAuto};

/// CSDA loss sub-stepped as the evaluator does, with every stopping power
/// (the first step's included) evaluated afresh through the free functions.
double reference_csda(Species s, double e_mev, double length_nm,
                      const Material& m) {
  const auto linear = [&](double e) {
    return linear_electronic_stopping(s, e, m) +
           nuclear_stopping(s, e, m) * m.density_g_cm3;
  };
  double e = e_mev;
  double remaining_cm = util::nm_to_cm(length_nm);
  while (remaining_cm > 0.0 && e > 1e-6) {
    const double s_lin = linear(e);
    if (s_lin <= 0.0) break;
    const double step = std::min(remaining_cm, 0.05 * e / s_lin);
    if (step <= 0.0) break;
    const double e_mid = std::max(e - 0.5 * step * s_lin, 1e-6);
    const double de = std::min(e, step * std::max(linear(e_mid), 0.0));
    e -= de;
    remaining_cm -= step;
  }
  return e_mev - std::max(e, 0.0);
}

/// Track transport through the brute-force query and per-call functions.
TrackResult reference_transport(const geom::BoxSet& fins, const geom::Ray& ray,
                                Species s, double e_mev, StragglingModel model,
                                stats::Rng& rng) {
  constexpr double kCutoffMeV = 1e-5;  // Transporter::Config default.
  const Material& fin_mat = silicon();
  const Material& bg_mat = silicon_dioxide();
  std::vector<geom::BoxHit> hits;
  fins.query(ray, hits);
  TrackResult result;
  double e = e_mev;
  double t_cursor = 0.0;
  for (const geom::BoxHit& hit : hits) {
    if (e <= kCutoffMeV) break;
    const double t_in = std::max(hit.interval.t_in, t_cursor);
    const double t_out = std::max(hit.interval.t_out, t_in);
    if (t_in < 0.0) continue;
    const double bg_len = t_in - t_cursor;
    if (bg_len > 0.0) {
      const double mean = reference_csda(s, e, bg_len, bg_mat);
      e -= sample_energy_loss(model, rng, s, e, mean, bg_len, bg_mat);
      if (e <= kCutoffMeV) {
        result.stopped_inside = true;
        return result;
      }
    }
    const double fin_len = t_out - t_in;
    if (fin_len > 0.0) {
      const double mean = reference_csda(s, e, fin_len, fin_mat);
      const double loss =
          sample_energy_loss(model, rng, s, e, mean, fin_len, fin_mat);
      if (loss > 0.0) {
        const double ionizing = loss * ionizing_fraction(s, e, fin_mat);
        result.deposits.push_back(FinDeposit{
            hit.id, fin_len, ionizing, eh_pairs_from_energy(ionizing, fin_mat)});
      }
      e -= loss;
      if (e <= kCutoffMeV) {
        result.stopped_inside = true;
        return result;
      }
    }
    t_cursor = t_out;
  }
  result.exit_energy_mev = std::max(e, 0.0);
  return result;
}

TEST(TransportKernel, MatchesPerCallReferenceBitForBit) {
  // The paper array (9x9) with the array MC's default 400 nm source margin,
  // so grazing rays cross many cells and many rays miss entirely.
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  const geom::BoxSet& fins = layout.fins();
  constexpr double kMarginNm = 400.0;
  const double z_source = layout.bounds().hi.z + 1.0;
  constexpr std::size_t kRaysPerCase = 400;  // 13 cases x 4 models: ~20k rays.

  std::size_t deposits = 0;
  std::size_t stopped = 0;
  std::uint64_t seed = 0;
  for (const StragglingModel model : kAllModels) {
    Transporter::Config cfg;
    cfg.straggling = model;
    Transporter transporter(fins, cfg);
    TrackResult got;  // Reused across rays, as the array engines do.
    for (const KernelCase& c : kKernelCases) {
      stats::Rng ray_rng(++seed);
      stats::Rng rng_kernel(seed * 7919);
      stats::Rng rng_reference(seed * 7919);
      for (std::size_t i = 0; i < kRaysPerCase; ++i) {
        geom::Ray ray;
        ray.origin = {ray_rng.uniform(-kMarginNm, layout.width_nm() + kMarginNm),
                      ray_rng.uniform(-kMarginNm, layout.height_nm() + kMarginNm),
                      z_source};
        ray.dir = stats::isotropic_hemisphere_down(ray_rng);
        if (ray.dir.z == 0.0) ray.dir.z = -1e-12;

        transporter.transport(ray, c.species, c.e_mev, rng_kernel, got);
        const TrackResult want = reference_transport(fins, ray, c.species,
                                                     c.e_mev, model,
                                                     rng_reference);
        ASSERT_EQ(got.deposits.size(), want.deposits.size())
            << species_name(c.species) << " " << c.e_mev << " MeV, ray " << i;
        for (std::size_t d = 0; d < want.deposits.size(); ++d) {
          EXPECT_EQ(got.deposits[d].fin_id, want.deposits[d].fin_id);
          EXPECT_EQ(got.deposits[d].path_nm, want.deposits[d].path_nm);
          EXPECT_EQ(got.deposits[d].energy_mev, want.deposits[d].energy_mev);
          EXPECT_EQ(got.deposits[d].eh_pairs, want.deposits[d].eh_pairs);
        }
        EXPECT_EQ(got.exit_energy_mev, want.exit_energy_mev);
        EXPECT_EQ(got.stopped_inside, want.stopped_inside);
        deposits += want.deposits.size();
        stopped += want.stopped_inside ? 1 : 0;
      }
      // Both sides consumed exactly the same random numbers.
      EXPECT_EQ(rng_kernel(), rng_reference());
    }
  }
  // The sweep exercises real deposits and ranging-out, not just misses.
  EXPECT_GT(deposits, 1000u);
  EXPECT_GT(stopped, 50u);
}

// ---------------------------------------------------------------------------
// Single-fin strike MC (paper Fig. 4 machinery)
// ---------------------------------------------------------------------------

TEST(FinMc, MeanChordTheorem) {
  // Isotropic chords through a convex body have mean length 4V/S.
  const geom::Aabb fin{{0, 0, 0}, {10, 20, 26}};
  FinStrikeMc::Config cfg;
  cfg.samples = 40000;
  cfg.straggling = StragglingModel::kNone;
  FinStrikeMc mc(fin, cfg);
  stats::Rng rng(7);
  const auto stats = mc.run(Species::kAlpha, 5.0, rng);
  const double v = 10.0 * 20.0 * 26.0;
  const double s = 2.0 * (10 * 20 + 10 * 26 + 20 * 26);
  EXPECT_NEAR(stats.mean_chord_nm, 4.0 * v / s, 0.15);
  EXPECT_GT(stats.hit_fraction, 0.3);
  EXPECT_LT(stats.hit_fraction, 0.8);
}

TEST(FinMc, AlphaYieldsMorePairsThanProton) {
  const geom::Aabb fin{{0, 0, 0}, {10, 20, 26}};
  FinStrikeMc::Config cfg;
  cfg.samples = 8000;
  FinStrikeMc mc(fin, cfg);
  stats::Rng rng(8);
  for (double e : {0.5, 1.0, 5.0}) {
    const auto a = mc.run(Species::kAlpha, e, rng);
    const auto p = mc.run(Species::kProton, e, rng);
    EXPECT_GT(a.mean_eh_pairs, 2.0 * p.mean_eh_pairs) << e;
  }
}

TEST(FinMc, PairsDecreaseAboveBraggPeak) {
  const geom::Aabb fin{{0, 0, 0}, {10, 20, 26}};
  FinStrikeMc::Config cfg;
  cfg.samples = 8000;
  FinStrikeMc mc(fin, cfg);
  stats::Rng rng(9);
  const auto lo = mc.run(Species::kAlpha, 1.0, rng);
  const auto hi = mc.run(Species::kAlpha, 20.0, rng);
  EXPECT_GT(lo.mean_eh_pairs, 2.0 * hi.mean_eh_pairs);
}

TEST(FinMc, LutCoversRangeAndClamps) {
  const geom::Aabb fin{{0, 0, 0}, {10, 20, 26}};
  FinStrikeMc::Config cfg;
  cfg.samples = 2000;
  FinStrikeMc mc(fin, cfg);
  stats::Rng rng(10);
  const auto lut = mc.build_lut(Species::kProton, 0.1, 100.0, 8, rng);
  EXPECT_GT(lut(0.1), 0.0);
  EXPECT_GT(lut(0.05), 0.0);   // Clamped below.
  EXPECT_GT(lut(200.0), 0.0);  // Clamped above.
  EXPECT_GT(lut(0.15), lut(50.0));
}

TEST(FinMc, RejectsBadConfig) {
  const geom::Aabb fin{{0, 0, 0}, {10, 20, 26}};
  FinStrikeMc::Config cfg;
  cfg.samples = 0;
  EXPECT_THROW(FinStrikeMc bad(fin, cfg), util::InvalidArgument);
  FinStrikeMc mc(fin);
  stats::Rng rng(11);
  EXPECT_THROW(mc.run(Species::kAlpha, 0.0, rng), util::InvalidArgument);
}


/// FinStrikeMc::run through per-call functions at every sample.
FinStrikeStats reference_fin_run(const geom::Aabb& fin, StragglingModel model,
                                 std::size_t samples, Species s, double e_mev,
                                 stats::Rng& rng) {
  const geom::Vec3 center = fin.center();
  const double radius = 0.5 * fin.extent().norm() * (1.0 + 1e-9);
  stats::RunningStats pairs;
  stats::RunningStats chords;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const geom::Vec3 dir = stats::isotropic_sphere(rng);
    const geom::Vec3 helper = std::abs(dir.x) < 0.9 ? geom::Vec3{1.0, 0.0, 0.0}
                                                    : geom::Vec3{0.0, 1.0, 0.0};
    const geom::Vec3 u = dir.cross(helper).normalized();
    const geom::Vec3 v = dir.cross(u);
    const double r = radius * std::sqrt(rng.uniform());
    const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const geom::Vec3 offset = u * (r * std::cos(phi)) + v * (r * std::sin(phi));
    const geom::Ray ray{center + offset - dir * (2.0 * radius), dir};
    const auto iv = fin.intersect(ray);
    if (!iv || iv->length() <= 0.0) continue;
    ++hits;
    const double chord = iv->length();
    const double mean = reference_csda(s, e_mev, chord, si);
    const double loss = sample_energy_loss(model, rng, s, e_mev, mean, chord, si);
    pairs.add(eh_pairs_from_energy(loss * ionizing_fraction(s, e_mev, si), si));
    chords.add(chord);
  }
  FinStrikeStats out;
  out.hits = hits;
  out.hit_fraction = static_cast<double>(hits) / static_cast<double>(samples);
  out.mean_eh_pairs = pairs.mean();
  out.stderr_eh_pairs = pairs.stderr_of_mean();
  out.mean_chord_nm = chords.mean();
  return out;
}

TEST(FinMcKernel, MatchesPerCallReferenceBitForBit) {
  const geom::Aabb fin{{0, 0, 0}, {10, 20, 26}};
  std::uint64_t seed = 100;
  for (const StragglingModel model : kAllModels) {
    FinStrikeMc::Config cfg;
    cfg.straggling = model;
    cfg.samples = 300;
    const FinStrikeMc mc(fin, cfg);
    for (const KernelCase& c : kKernelCases) {
      stats::Rng rng_kernel(++seed);
      stats::Rng rng_reference(seed);
      const FinStrikeStats got = mc.run(c.species, c.e_mev, rng_kernel);
      const FinStrikeStats want = reference_fin_run(
          fin, model, cfg.samples, c.species, c.e_mev, rng_reference);
      EXPECT_EQ(got.hits, want.hits) << species_name(c.species) << " " << c.e_mev;
      EXPECT_EQ(got.hit_fraction, want.hit_fraction);
      EXPECT_EQ(got.mean_eh_pairs, want.mean_eh_pairs);
      EXPECT_EQ(got.stderr_eh_pairs, want.stderr_eh_pairs);
      EXPECT_EQ(got.mean_chord_nm, want.mean_chord_nm);
      EXPECT_GT(got.hits, 0u);
      EXPECT_EQ(rng_kernel(), rng_reference());
    }
  }
}

}  // namespace
}  // namespace finser::phys
