#pragma once
/// \file vr.hpp
/// \brief Variance reduction for the array-level Monte Carlos.
///
/// Most strikes miss every sensitive fin, so the uniform source estimator
/// spends the bulk of its budget on zero-POF samples. This header provides
/// the levers the track-aware importance sampler of core::ArrayMc is built
/// from (docs/statistics.md derives each estimator and measures it):
///
///  * FocusPlane — importance sampling of a position on a plane: a mixture
///    that throws a fraction alpha of the samples uniformly into focus boxes
///    and the rest uniformly over the whole plane. The proposal density is
///    exact even when boxes overlap (point-in-box cover counting), so the
///    likelihood-ratio weight w = p_uniform / q is exact and bounded by
///    1/(1 - alpha) — the estimator stays exactly unbiased, never merely
///    approximately.
///  * grazing_hemisphere_down — a shifted-reciprocal direction mixture that
///    oversamples near-horizontal tracks under the isotropic angular law,
///    again with the exact likelihood ratio.
///  * SobolSequence — a scrambled Sobol (0,2)-sequence in base 2, indexed by
///    the *global* strike index so the point set is independent of chunking,
///    with a per-dimension digital shift derived from the run seed through
///    the counter-based Rng::derive_seed interface. It drives the strike
///    origin draws of either position mode (QmcMode::kSobol).
///
/// CiStopConfig + ckpt::round_boundaries() define the deterministic
/// chunk-granular early-stopping schedule shared by all engines: the
/// decision after round k is a pure function of the merged statistics of
/// chunks [0, b_k), so it is identical at any thread count, any worker
/// count, and across kill/resume.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "finser/geom/vec3.hpp"
#include "finser/stats/rng.hpp"

namespace finser::stats {

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Quasi-Monte-Carlo point set for the source-position dimensions.
enum class QmcMode {
  kNone,   ///< Pseudo-random positions (default).
  kSobol,  ///< Scrambled Sobol points indexed by global strike index.
};

/// Knobs of the charged-particle source variance reduction beyond the
/// position mode (core::SourcePositionSampling). A default-constructed
/// config reproduces the pseudo-random estimator bit-for-bit. The importance
/// sampler's mixture masses and margin are constants (kGrazingBias here,
/// the focus constants in core/array_mc.cpp).
struct SamplingConfig {
  /// QMC point set for the position dimensions.
  QmcMode qmc = QmcMode::kNone;
};

/// Per-energy-bin CI-driven early stopping.
struct CiStopConfig {
  /// Target relative half-width of the 95% CI on the POF_tot channel
  /// (max over supply voltages and PV modes). 0 = disabled: the engine
  /// runs its full strike budget, byte-identical to before this knob
  /// existed.
  double target = 0.0;
  /// Chunks completed before the first stopping decision.
  std::size_t min_chunks = 8;
  /// Round-size growth factor (each round extends the computed prefix by
  /// this factor before the next decision).
  double growth = 2.0;

  bool enabled() const { return target > 0.0; }
};

/// Two-sided 95% normal quantile used by every stopping rule and error bar.
inline constexpr double kZ95 = 1.959963984540054;

/// Relative half-width of the 95% CI: kZ95 * se / mean. Zero mean means the
/// accumulator has seen no POF mass at all — treated as converged (returns
/// 0); see docs/statistics.md for why that is safe under a min_chunks floor.
/// (The round boundaries themselves live in ckpt::round_boundaries — the
/// round scheduler owns the schedule, so every thread and worker count
/// replays it exactly.)
double relative_halfwidth(double mean, double se);

// ---------------------------------------------------------------------------
// Importance sampling of the source-plane position
// ---------------------------------------------------------------------------

/// Axis-aligned 2-D focus box on the source plane [nm].
struct FocusBox {
  double x_lo = 0.0;
  double x_hi = 0.0;
  double y_lo = 0.0;
  double y_hi = 0.0;

  double area() const { return (x_hi - x_lo) * (y_hi - y_lo); }
  bool contains(double x, double y) const {
    return x >= x_lo && x <= x_hi && y >= y_lo && y <= y_hi;
  }
};

/// Mixture proposal over the rectangular source plane:
///
///   q(x) = alpha * cover(x) / sum_areas + (1 - alpha) / plane_area
///
/// where cover(x) counts the focus boxes containing x. Sampling draws a
/// focus box with probability proportional to its area (double-covered
/// regions are double-likely, which is exactly what the cover count in the
/// density accounts for), so overlapping boxes need no union computation.
/// The likelihood-ratio weight of a sample is (1/plane_area) / q(x).
class FocusPlane {
 public:
  /// \param boxes are clipped to the plane; empty/degenerate boxes (and an
  /// empty set) degrade alpha to 0 — pure uniform sampling, weight 1.
  FocusPlane(double x_lo, double x_hi, double y_lo, double y_hi,
             std::vector<FocusBox> boxes, double alpha);

  struct Sample {
    double x = 0.0;
    double y = 0.0;
    bool focused = false;  ///< Drawn from the focus component.
  };

  /// Map three uniforms in [0, 1) to a position. \p u_select picks
  /// the mixture branch and (rescaled) the focus box, \p u_x / \p u_y place
  /// the point — so a QMC point set can drive the sampler directly.
  Sample sample(double u_select, double u_x, double u_y) const;

  /// Mixture density at (x, y) [nm^-2]; 0 outside the plane.
  double pdf(double x, double y) const;

  /// Likelihood-ratio weight p_uniform / q at (x, y).
  double weight(double x, double y) const;

  double alpha() const { return alpha_; }
  double plane_area() const { return plane_area_; }
  /// Total focus area counted with multiplicity (the mixture normalizer).
  double focus_area() const { return focus_area_; }
  std::size_t box_count() const { return boxes_.size(); }

 private:
  double x_lo_, x_hi_, y_lo_, y_hi_;
  double plane_area_;
  double alpha_;
  double focus_area_ = 0.0;
  std::vector<FocusBox> boxes_;
  std::vector<double> cum_area_;  ///< Cumulative areas for box selection.
};

// ---------------------------------------------------------------------------
// Grazing direction mixture
// ---------------------------------------------------------------------------

struct DirectionSample {
  geom::Vec3 dir;
  double weight = 1.0;  ///< Exact likelihood ratio p_isotropic / q.
};

/// Grazing-incidence floor of the shifted-reciprocal direction mixture: the
/// grazing component's |z| density is proportional to 1 / (|z| + kGrazingZ0),
/// i.e. ~1/|z| oversampling down to |z| ~ kGrazingZ0 and flat below (tracks
/// more grazing than that out-range the array, so their POF second moment
/// stops growing — see grazing_hemisphere_down).
inline constexpr double kGrazingZ0 = 0.03;

/// Grazing-mixture mass delta the track-aware importance sampler draws
/// directions with (core::SourcePositionSampling::kImportance under the
/// isotropic law): near-horizontal tracks sweep across many cells and carry
/// most of the POF variance. Weights stay bounded by 1 / (1 - delta) = 10.
inline constexpr double kGrazingBias = 0.9;

/// Downward direction from the grazing mixture
/// q(|z|) = delta * C / (|z| + kGrazingZ0) + (1 - delta), C = 1 / ln(1 +
/// 1/kGrazingZ0), weighted back to the isotropic hemisphere law (|z|
/// uniform): w = 1 / q, bounded by 1 / (1 - delta). Oversamples
/// near-horizontal tracks — the MBU-rich, high-variance tail of the POF
/// estimator — matching the ~1/|z| growth of sqrt(E[X^2 | z]). delta = 0
/// reproduces isotropic_hemisphere_down exactly (same draws, weight 1).
DirectionSample grazing_hemisphere_down(Rng& rng, double delta);

// ---------------------------------------------------------------------------
// Scrambled Sobol sequence
// ---------------------------------------------------------------------------

/// First three dimensions of the Joe–Kuo Sobol sequence with a per-dimension
/// random digital shift (XOR scrambling) — the origin uniforms: mixture
/// selector (importance sampling only), x and y. Points are computed
/// directly from the index (Gray-code formula), so point \p index is the
/// same value no matter which chunk or worker asks — the QMC analogue of
/// the counter-based Rng::stream contract. Dimension pairs keep the
/// (0,2)-sequence dyadic stratification property; the digital shift
/// randomizes the set per run seed while preserving it.
class SobolSequence {
 public:
  static constexpr std::size_t kDims = 3;

  /// \param scramble_seed keys the per-dimension digital shifts (derive one
  /// from the run seed via Rng::derive_seed). The same seed always produces
  /// the same point set.
  explicit SobolSequence(std::uint64_t scramble_seed);

  /// Coordinate \p dim (< kDims) of point \p index, in [0, 1).
  double point(std::uint64_t index, std::size_t dim) const;

 private:
  static constexpr std::size_t kBits = 32;
  std::uint32_t dirs_[kDims][kBits];
  std::uint32_t shift_[kDims];
};

}  // namespace finser::stats
