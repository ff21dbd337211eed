#pragma once
/// \file summary.hpp
/// \brief Online (Welford) accumulation of Monte-Carlo estimators.
///
/// Array-level MC campaigns average POF over millions of strikes (paper
/// Sec. 5.1 step 6). Welford's algorithm keeps the running mean/variance
/// numerically stable at any sample count, and `stderr_of_mean()` gives the
/// error bars quoted in EXPERIMENTS.md.

#include <cstddef>
#include <cstdint>

namespace finser::stats {

/// Numerically stable running mean / variance accumulator.
class RunningStats {
 public:
  /// Add one observation.
  void add(double x);

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
  /// Complete internal state for bit-exact serialization: the fields
  /// round-trip as raw IEEE-754 doubles, so a restored accumulator is
  /// indistinguishable from the original.
  struct Raw {
    std::uint64_t n = 0;
    double sum_w = 0.0;
    double sum_w2 = 0.0;
    double mean = 0.0;
    double m2 = 0.0;
  };

  /// Add one observation \p x with weight \p w >= 0.
  void add(double x, double w);

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

  Raw raw() const {
    return Raw{static_cast<std::uint64_t>(n_), sum_w_, sum_w2_, mean_, m2_};
  }

  static WeightedRunningStats from_raw(const Raw& r) {
    WeightedRunningStats s;
    s.n_ = static_cast<std::size_t>(r.n);
    s.sum_w_ = r.sum_w;
    s.sum_w2_ = r.sum_w2;
    s.mean_ = r.mean;
    s.m2_ = r.m2;
    return s;
  }

 private:
  std::size_t n_ = 0;
  double sum_w_ = 0.0;
  double sum_w2_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace finser::stats
