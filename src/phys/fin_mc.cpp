#include "finser/phys/fin_mc.hpp"

#include <cmath>
#include <numbers>

#include "finser/geom/box_set.hpp"
#include "finser/obs/obs.hpp"
#include "finser/phys/collection.hpp"
#include "finser/phys/material.hpp"
#include "finser/phys/stopping.hpp"
#include "finser/stats/direction.hpp"
#include "finser/stats/summary.hpp"
#include "finser/util/error.hpp"

namespace finser::phys {

namespace {

using geom::Vec3;

/// Build an orthonormal basis (u, v) perpendicular to unit vector w.
void basis_perpendicular(const Vec3& w, Vec3& u, Vec3& v) {
  const Vec3 helper = std::abs(w.x) < 0.9 ? Vec3{1.0, 0.0, 0.0} : Vec3{0.0, 1.0, 0.0};
  u = w.cross(helper).normalized();
  v = w.cross(u);
}

}  // namespace

FinStrikeMc::FinStrikeMc(const geom::Aabb& fin_box)
    : FinStrikeMc(fin_box, Config{}) {}

FinStrikeMc::FinStrikeMc(const geom::Aabb& fin_box, const Config& config)
    : fin_(fin_box), config_(config) {
  FINSER_REQUIRE(fin_.valid(), "FinStrikeMc: invalid fin box");
  FINSER_REQUIRE(config_.samples > 0, "FinStrikeMc: need at least one sample");
  enclosing_radius_nm_ = 0.5 * fin_.extent().norm() * (1.0 + 1e-9);
}

FinStrikeStats FinStrikeMc::run(Species s, double e_mev, stats::Rng& rng) const {
  FINSER_REQUIRE(e_mev > 0.0, "FinStrikeMc::run: non-positive energy");
  obs::ScopedSpan span("phys.fin_mc.run");
  FINSER_OBS_COUNT("phys.fin_mc.samples", config_.samples);
  const Vec3 center = fin_.center();
  const Material& si = silicon();
  // Every hit enters the fin at e_mev: one evaluation of the energy terms
  // and of the ionizing fraction serves the whole run.
  const EnergyLoss loss(s, si);
  const EnergyLoss::Terms entry = loss.at(e_mev);
  const double ionizing_share = loss.ionizing_fraction(entry);

  stats::RunningStats pairs_stats;
  stats::RunningStats chord_stats;
  std::size_t hits = 0;

  for (std::size_t i = 0; i < config_.samples; ++i) {
    // Isotropic chord sampling: direction uniform on the sphere, entry offset
    // uniform on the perpendicular disc of the enclosing sphere.
    const Vec3 dir = stats::isotropic_sphere(rng);
    Vec3 u, v;
    basis_perpendicular(dir, u, v);
    const double r = enclosing_radius_nm_ * std::sqrt(rng.uniform());
    const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const Vec3 offset = u * (r * std::cos(phi)) + v * (r * std::sin(phi));
    const geom::Ray ray{center + offset - dir * (2.0 * enclosing_radius_nm_), dir};

    const auto iv = fin_.intersect(ray);
    if (!iv || iv->length() <= 0.0) continue;
    ++hits;

    const double chord_nm = iv->length();
    const double mean_loss = loss.csda_loss(entry, chord_nm);
    const double sampled = loss.sample_loss(config_.straggling, rng, entry,
                                            mean_loss, chord_nm);
    // Ionizing fraction (Lindhard-partitioned nuclear share included).
    const double ionizing = sampled * ionizing_share;

    pairs_stats.add(eh_pairs_from_energy(ionizing, si));
    chord_stats.add(chord_nm);
  }

  FinStrikeStats out;
  out.hits = hits;
  out.hit_fraction =
      static_cast<double>(hits) / static_cast<double>(config_.samples);
  out.mean_eh_pairs = pairs_stats.mean();
  out.stderr_eh_pairs = pairs_stats.stderr_of_mean();
  out.mean_chord_nm = chord_stats.mean();
  return out;
}

util::Grid1 FinStrikeMc::build_lut(Species s, double e_lo_mev, double e_hi_mev,
                                   std::size_t points, stats::Rng& rng) const {
  FINSER_REQUIRE(points >= 2, "FinStrikeMc::build_lut: need >= 2 points");
  util::Axis axis = util::make_log_axis(e_lo_mev, e_hi_mev, points);
  std::vector<double> pairs(points);
  for (std::size_t i = 0; i < points; ++i) {
    pairs[i] = run(s, axis[i], rng).mean_eh_pairs;
  }
  return util::Grid1(std::move(axis), std::move(pairs), util::Scale::kLinear,
                     util::OutOfRange::kClamp);
}

}  // namespace finser::phys
