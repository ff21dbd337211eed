#pragma once
/// \file summary.hpp
/// \brief Online (Welford) accumulation of Monte-Carlo estimators.
///
/// Array-level MC campaigns average POF over millions of strikes (paper
/// Sec. 5.1 step 6). Welford's algorithm keeps the running mean/variance
/// numerically stable at any sample count, and `stderr_of_mean()` gives the
/// error bars quoted in EXPERIMENTS.md.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "finser/util/error.hpp"

namespace finser::stats {

/// Numerically stable running mean / variance accumulator.
class RunningStats {
 public:
  /// Add one observation.
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  /// Merge another accumulator (parallel reduction form).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }

  /// Unbiased sample variance (0 for n < 2).
  double variance() const;

  /// Sample standard deviation.
  double stddev() const;

  /// Standard error of the mean (0 for n < 2).
  double stderr_of_mean() const;

  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Weighted running mean / variance accumulator (West's incremental update,
/// Chan-style parallel merge), used by the variance-reduction layer for
/// importance-sampled estimators: each observation carries its exact
/// likelihood-ratio weight, and the effective sample size
/// ESS = (Σw)² / Σw² quantifies how much weight degeneracy the proposal
/// cost (ESS == count() for unit weights). Zero-weight observations are
/// counted but carry no moment mass — a merged-in all-zero-weight chunk is
/// a no-op on the moments. Weights must be non-negative and finite; the
/// moment state stays finite for weight ratios up to ~1e±150 (Σw² is the
/// first quantity to overflow — tested in test_stats.cpp).
class WeightedRunningStats {
 public:
  /// Add one observation \p x with weight \p w >= 0.
  void add(double x, double w) {
    FINSER_REQUIRE(w >= 0.0 && std::isfinite(w),
                   "WeightedRunningStats: weight must be finite and >= 0");
    ++n_;
    if (w == 0.0) return;  // Counted, no moment mass.
    sum_w_ += w;
    sum_w2_ += w * w;
    const double delta = x - mean_;
    mean_ += (w / sum_w_) * delta;
    m2_ += w * delta * (x - mean_);
  }

  /// Merge another accumulator (parallel reduction form).
  void merge(const WeightedRunningStats& other);

  /// Observations seen, including zero-weight ones.
  std::size_t count() const { return n_; }
  double sum_weights() const { return sum_w_; }
  double sum_weights_sq() const { return sum_w2_; }

  /// Weighted mean (0 before any positive-weight observation).
  double mean() const { return sum_w_ > 0.0 ? mean_ : 0.0; }

  /// Effective sample size (Σw)² / Σw²; equals count() for unit weights,
  /// 0 before any positive-weight observation.
  double ess() const;

  /// Reliability-weighted unbiased sample variance (0 when ESS <= 1).
  double variance() const;

  /// Standard error of the weighted mean: sqrt(variance / ESS).
  double stderr_of_mean() const;

 private:
  std::size_t n_ = 0;
  double sum_w_ = 0.0;
  double sum_w2_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace finser::stats
