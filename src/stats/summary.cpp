#include "finser/stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "finser/util/error.hpp"

namespace finser::stats {

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_of_mean() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

void WeightedRunningStats::merge(const WeightedRunningStats& other) {
  n_ += other.n_;
  if (other.sum_w_ <= 0.0) return;
  if (sum_w_ <= 0.0) {
    sum_w_ = other.sum_w_;
    sum_w2_ = other.sum_w2_;
    mean_ = other.mean_;
    m2_ = other.m2_;
    return;
  }
  const double wa = sum_w_;
  const double wb = other.sum_w_;
  const double wt = wa + wb;
  const double delta = other.mean_ - mean_;
  mean_ += delta * wb / wt;
  m2_ += other.m2_ + delta * delta * wa * wb / wt;
  sum_w_ = wt;
  sum_w2_ += other.sum_w2_;
}

double WeightedRunningStats::ess() const {
  if (sum_w2_ <= 0.0) return 0.0;
  return sum_w_ * sum_w_ / sum_w2_;
}

double WeightedRunningStats::variance() const {
  // Reliability-weight form: unbiased denominator Σw − Σw²/Σw.
  const double denom = sum_w_ - (sum_w_ > 0.0 ? sum_w2_ / sum_w_ : 0.0);
  if (denom <= 0.0) return 0.0;
  return m2_ / denom;
}

double WeightedRunningStats::stderr_of_mean() const {
  const double e = ess();
  if (e <= 1.0) return 0.0;
  return std::sqrt(variance() / e);
}

}  // namespace finser::stats
