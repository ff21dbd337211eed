#pragma once
/// \file direction.hpp
/// \brief Random direction sampling for particle sources.
///
/// The paper's array MC generates "a random particle with a random direction
/// and position" (Sec. 5.1 step 1). finser supports two angular laws for the
/// downward hemisphere source plane above the die:
///  * isotropic — uniform on the solid angle (alpha emission from package
///    material in close proximity);
///  * cosine-law — flux-weighted arrival through a plane (appropriate for an
///    external isotropic field such as atmospheric protons).
/// Directions point *into* the die: dir.z < 0.

#include "finser/geom/vec3.hpp"
#include "finser/stats/rng.hpp"

namespace finser::stats {

/// A direction as its law draws it, before any trig: the lateral length r,
/// the vertical component z and the azimuth phi of {r cos φ, r sin φ, z}.
/// r / |z| is the track's lateral run per unit of descent, so a caller can
/// bound where the track goes before it pays for the cos and sin.
struct PolarDirection {
  double r = 0.0;
  double z = 0.0;
  double phi = 0.0;
};

/// {r cos φ, r sin φ, z}: the trig every law below shares.
geom::Vec3 direction(const PolarDirection& p);

/// The x-y run of direction(p) per unit of descent, bounded without its
/// trig: on each axis the run lies between 0 and the returned component,
/// whose size is r / |z| and whose sign is the one φ's quadrant gives
/// cos φ (x) and sin φ (y). Needs φ in [0, 2π), as every law below draws
/// it; within a few ulps of a quadrant edge the trig may return a value
/// of the other sign, but no larger than 1e-15 · r.
struct LateralRun {
  double x = 0.0;
  double y = 0.0;
};
LateralRun lateral_run(const PolarDirection& p);

/// The draws of the two hemisphere laws below:
/// law(rng) ≡ direction(draw_law(rng)).
PolarDirection draw_isotropic_hemisphere_down(Rng& rng);
PolarDirection draw_cosine_hemisphere_down(Rng& rng);

/// Uniform direction on the full unit sphere.
geom::Vec3 isotropic_sphere(Rng& rng);

/// Uniform direction on the downward hemisphere (dir.z <= 0).
geom::Vec3 isotropic_hemisphere_down(Rng& rng);

/// Cosine-law direction on the downward hemisphere (pdf ∝ |cosθ|).
geom::Vec3 cosine_hemisphere_down(Rng& rng);

}  // namespace finser::stats
