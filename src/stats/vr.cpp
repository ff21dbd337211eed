#include "finser/stats/vr.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "finser/stats/direction.hpp"
#include "finser/util/error.hpp"

namespace finser::stats {

// --- Stopping schedule ------------------------------------------------------

double relative_halfwidth(double mean, double se) {
  if (mean <= 0.0) return 0.0;
  return kZ95 * se / mean;
}

// --- FocusPlane -------------------------------------------------------------

FocusPlane::FocusPlane(double x_lo, double x_hi, double y_lo, double y_hi,
                       std::vector<FocusBox> boxes, double alpha)
    : x_lo_(x_lo), x_hi_(x_hi), y_lo_(y_lo), y_hi_(y_hi),
      plane_area_((x_hi - x_lo) * (y_hi - y_lo)), alpha_(alpha) {
  FINSER_REQUIRE(x_hi > x_lo && y_hi > y_lo, "FocusPlane: degenerate plane");
  FINSER_REQUIRE(alpha >= 0.0 && alpha < 1.0,
                 "FocusPlane: focus fraction must be in [0, 1)");
  boxes_.reserve(boxes.size());
  for (FocusBox b : boxes) {
    b.x_lo = std::max(b.x_lo, x_lo_);
    b.x_hi = std::min(b.x_hi, x_hi_);
    b.y_lo = std::max(b.y_lo, y_lo_);
    b.y_hi = std::min(b.y_hi, y_hi_);
    if (b.x_hi <= b.x_lo || b.y_hi <= b.y_lo) continue;  // Off-plane box.
    boxes_.push_back(b);
    focus_area_ += b.area();
    cum_area_.push_back(focus_area_);
  }
  if (boxes_.empty() || focus_area_ <= 0.0) alpha_ = 0.0;
}

FocusPlane::Sample FocusPlane::sample(double u_select, double u_x,
                                      double u_y) const {
  Sample s;
  if (u_select < alpha_) {
    // Focus branch: area-weighted box via the rescaled selector uniform —
    // the standard reuse that lets one QMC dimension drive branch + box.
    const double target = (u_select / alpha_) * focus_area_;
    const auto it = std::upper_bound(cum_area_.begin(), cum_area_.end(), target);
    const std::size_t idx = std::min<std::size_t>(
        static_cast<std::size_t>(it - cum_area_.begin()), boxes_.size() - 1);
    const FocusBox& b = boxes_[idx];
    s.x = b.x_lo + (b.x_hi - b.x_lo) * u_x;
    s.y = b.y_lo + (b.y_hi - b.y_lo) * u_y;
    s.focused = true;
  } else {
    s.x = x_lo_ + (x_hi_ - x_lo_) * u_x;
    s.y = y_lo_ + (y_hi_ - y_lo_) * u_y;
  }
  return s;
}

double FocusPlane::pdf(double x, double y) const {
  if (x < x_lo_ || x > x_hi_ || y < y_lo_ || y > y_hi_) return 0.0;
  double q = (1.0 - alpha_) / plane_area_;
  if (alpha_ > 0.0) {
    std::size_t cover = 0;
    for (const FocusBox& b : boxes_) {
      if (b.contains(x, y)) ++cover;
    }
    if (cover > 0) {
      q += alpha_ * static_cast<double>(cover) / focus_area_;
    }
  }
  return q;
}

double FocusPlane::weight(double x, double y) const {
  const double q = pdf(x, y);
  if (q <= 0.0) return 0.0;  // Off-plane points carry no mass.
  return (1.0 / plane_area_) / q;
}

// --- Direction mixture ------------------------------------------------------

DirectionSample grazing_hemisphere_down(Rng& rng, double delta) {
  FINSER_REQUIRE(delta >= 0.0 && delta < 1.0,
                 "grazing_hemisphere_down: bias must be in [0, 1)");
  DirectionSample s;
  if (delta == 0.0) {
    s.dir = isotropic_hemisphere_down(rng);
    return s;  // Weight identically 1 — bitwise the isotropic sampler.
  }
  // Grazing component: |z| ~ C / (|z| + z0) on (0, 1], C = 1 / ln(1 + 1/z0).
  // The POF second moment per direction grows like 1/|z|^2 toward grazing
  // incidence until tracks out-range the array (around |z| ~ z0), so the
  // variance-optimal proposal ~ sqrt(E[X^2 | z]) is ~ 1/|z| above z0 and
  // flat below — exactly this family's shape.
  const double log_span = std::log1p(1.0 / kGrazingZ0);
  if (rng.uniform() < delta) {
    // Inverse CDF: z = z0 * (exp(u * ln(1 + 1/z0)) - 1).
    const double u = rng.uniform();
    const double z = std::min(1.0, kGrazingZ0 * std::expm1(u * log_span));
    const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
    s.dir = direction({std::sqrt(std::max(0.0, 1.0 - z * z)), -z, phi});
  } else {
    s.dir = isotropic_hemisphere_down(rng);
  }
  // Under the isotropic hemisphere law |z| is uniform on [0, 1], so
  // q(|z|) = delta * C / (|z| + z0) + (1 - delta) and w = 1 / q, bounded
  // by 1 / (1 - delta).
  const double az = std::abs(s.dir.z);
  const double q = delta / ((az + kGrazingZ0) * log_span) + (1.0 - delta);
  s.weight = 1.0 / q;
  return s;
}

// --- Scrambled Sobol --------------------------------------------------------

namespace {

/// Primitive polynomials + Joe–Kuo initial direction numbers for Sobol
/// dimensions 2..3 (dimension 1 is the van der Corput radical inverse).
/// a encodes the inner polynomial coefficient bits, m the initial m_k.
struct SobolPoly {
  unsigned s;       ///< Degree.
  unsigned a;       ///< Coefficient bits a_1..a_{s-1}.
  unsigned m[2];    ///< Initial direction integers m_1..m_s (odd).
};

constexpr SobolPoly kPolys[SobolSequence::kDims - 1] = {
    {1, 0, {1, 0}},
    {2, 1, {1, 3}},
};

}  // namespace

SobolSequence::SobolSequence(std::uint64_t scramble_seed) {
  // Dimension 0: van der Corput, v_k = 2^(32-k).
  for (std::size_t k = 0; k < kBits; ++k) {
    dirs_[0][k] = 1u << (31 - k);
  }
  for (std::size_t d = 1; d < kDims; ++d) {
    const SobolPoly& p = kPolys[d - 1];
    std::uint32_t m[kBits];
    for (unsigned k = 0; k < p.s; ++k) m[k] = p.m[k];
    for (std::size_t k = p.s; k < kBits; ++k) {
      // m_k = XOR_{i=1}^{s-1} (2^i a_i m_{k-i}) ^ (2^s m_{k-s}) ^ m_{k-s}.
      std::uint32_t v = m[k - p.s] ^ (m[k - p.s] << p.s);
      for (unsigned i = 1; i < p.s; ++i) {
        if ((p.a >> (p.s - 1 - i)) & 1u) v ^= m[k - i] << i;
      }
      m[k] = v;
    }
    for (std::size_t k = 0; k < kBits; ++k) {
      dirs_[d][k] = m[k] << (31 - k);
    }
  }
  // Per-dimension digital shift: one decorrelated 32-bit word per dimension,
  // derived through the same counter-based interface the RNG streams use.
  for (std::size_t d = 0; d < kDims; ++d) {
    shift_[d] = static_cast<std::uint32_t>(
        Rng::derive_seed(scramble_seed, static_cast<std::uint64_t>(d)) >> 32);
  }
}

double SobolSequence::point(std::uint64_t index, std::size_t dim) const {
  FINSER_REQUIRE(dim < kDims, "SobolSequence: dimension out of range");
  // Gray-code formula: x_n = XOR of v_k over the set bits of n ^ (n >> 1).
  std::uint64_t gray = index ^ (index >> 1);
  std::uint32_t x = 0;
  for (std::size_t k = 0; k < kBits && gray != 0; ++k, gray >>= 1) {
    if (gray & 1u) x ^= dirs_[dim][k];
  }
  x ^= shift_[dim];
  return static_cast<double>(x) * 0x1p-32;
}

}  // namespace finser::stats
