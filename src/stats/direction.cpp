#include "finser/stats/direction.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace finser::stats {

using geom::Vec3;

namespace {

PolarDirection draw_isotropic_sphere(Rng& rng) {
  // Archimedes: z uniform in [-1, 1], azimuth uniform.
  const double z = rng.uniform(-1.0, 1.0);
  const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return {std::sqrt(std::max(0.0, 1.0 - z * z)), z, phi};
}

}  // namespace

Vec3 direction(const PolarDirection& p) {
  return {p.r * std::cos(p.phi), p.r * std::sin(p.phi), p.z};
}

LateralRun lateral_run(const PolarDirection& p) {
  constexpr double kHalfPi = 0.5 * std::numbers::pi;
  const double run = p.r / std::abs(p.z);
  const bool east = p.phi < kHalfPi || p.phi >= 3.0 * kHalfPi;
  const bool north = p.phi < std::numbers::pi;
  return {east ? run : -run, north ? run : -run};
}

PolarDirection draw_isotropic_hemisphere_down(Rng& rng) {
  PolarDirection p = draw_isotropic_sphere(rng);
  if (p.z > 0.0) p.z = -p.z;
  return p;
}

PolarDirection draw_cosine_hemisphere_down(Rng& rng) {
  // Malley's method: sample a disc, project up; flip to the -z hemisphere.
  const double u = rng.uniform();
  const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return {std::sqrt(u), -std::sqrt(std::max(0.0, 1.0 - u)), phi};
}

Vec3 isotropic_sphere(Rng& rng) { return direction(draw_isotropic_sphere(rng)); }

Vec3 isotropic_hemisphere_down(Rng& rng) {
  return direction(draw_isotropic_hemisphere_down(rng));
}

Vec3 cosine_hemisphere_down(Rng& rng) {
  return direction(draw_cosine_hemisphere_down(rng));
}

}  // namespace finser::stats
