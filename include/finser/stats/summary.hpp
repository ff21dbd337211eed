#pragma once
/// \file summary.hpp
/// \brief Online (Welford) accumulation of Monte-Carlo estimators.
///
/// Array-level MC campaigns average POF over millions of strikes (paper
/// Sec. 5.1 step 6). Welford's algorithm keeps the running mean/variance
/// numerically stable at any sample count, and `stderr_of_mean()` gives the
/// error bars quoted in EXPERIMENTS.md.

#include <algorithm>
#include <cstddef>

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

}  // namespace finser::stats
