#include "finser/spice/mna.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "finser/obs/obs.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {

namespace {

[[noreturn]] void throw_consumed(const char* op) {
  throw util::LogicError(std::string("Mna::") + op +
                         ": system already consumed by a factorization; "
                         "clear() and restamp before reusing it");
}

}  // namespace

Mna::Mna(std::size_t size) : n_(size), a_(size * size, 0.0), b_(size, 0.0),
                             perm_(size, 0) {
  FINSER_REQUIRE(size > 0, "Mna: empty system");
}

void Mna::clear() {
  std::fill(a_.begin(), a_.end(), 0.0);
  std::fill(b_.begin(), b_.end(), 0.0);
  consumed_ = false;
}

void Mna::add(std::size_t i, std::size_t j, double g) {
  if (consumed_) throw_consumed("add");
  if (i == kGround || j == kGround) return;
  a_[i * n_ + j] += g;
}

void Mna::add_rhs(std::size_t i, double v) {
  if (consumed_) throw_consumed("add_rhs");
  if (i == kGround) return;
  b_[i] += v;
}

void Mna::set(std::size_t i, std::size_t j, double v) {
  if (consumed_) throw_consumed("set");
  FINSER_REQUIRE(i < n_ && j < n_, "Mna::set: entry out of range");
  a_[i * n_ + j] = v;
}

void Mna::set_rhs(std::size_t i, double v) {
  if (consumed_) throw_consumed("set_rhs");
  FINSER_REQUIRE(i < n_, "Mna::set_rhs: entry out of range");
  b_[i] = v;
}

void Mna::add_gmin(double gmin, std::size_t n_nodes) {
  if (consumed_) throw_consumed("add_gmin");
  for (std::size_t i = 0; i < n_nodes && i < n_; ++i) {
    a_[i * n_ + i] += gmin;
  }
}

std::vector<double> Mna::solve() {
  std::vector<double> x;
  factor_and_solve(nullptr, x);
  return x;
}

void Mna::solve_with_cache(PivotCache& cache, std::vector<double>& x_out) {
  factor_and_solve(&cache, x_out);
}

void Mna::factor_and_solve(PivotCache* cache, std::vector<double>& x) {
  FINSER_OBS_COUNT("spice.mna.solves", 1);
  if (consumed_) throw_consumed("solve");
  // A NaN/Inf on the right-hand side poisons every unknown during back
  // substitution; reject it up front with a precise diagnostic instead of
  // reporting a misleading "non-finite solution component" later.
  for (std::size_t i = 0; i < n_; ++i) {
    if (!std::isfinite(b_[i])) {
      throw util::NumericalError("Mna::solve: non-finite rhs entry at row " +
                                 std::to_string(i));
    }
  }
  consumed_ = true;

  // In-place LU with partial pivoting on the row-major matrix. When a pivot
  // cache is supplied, the predicted order is verified against the column
  // winner found by the very same scan fresh pivoting performs, so the
  // elimination arithmetic is identical whether or not the prediction holds
  // (see the class comment); the prediction outcome only feeds the
  // pivot_reuse/pivot_refactor observability split.
  const bool predicted =
      cache != nullptr && cache->valid && cache->perm.size() == n_;
  bool prediction_held = predicted;

  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  for (std::size_t col = 0; col < n_; ++col) {
    // Pivot search.
    std::size_t piv = col;
    double best = std::abs(a_[perm_[col] * n_ + col]);
    for (std::size_t r = col + 1; r < n_; ++r) {
      const double v = std::abs(a_[perm_[r] * n_ + col]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (!(best > 1e-300)) {
      if (cache != nullptr) cache->invalidate();
      throw util::NumericalError("Mna::solve: singular matrix at column " +
                                 std::to_string(col));
    }
    if (prediction_held && perm_[piv] != cache->perm[col]) {
      // The cached pivot fell below the column winner: fall back to fresh
      // partial pivoting from this column on (which the scan above already
      // is — only the bookkeeping notices).
      prediction_held = false;
    }
    std::swap(perm_[col], perm_[piv]);

    const std::size_t prow = perm_[col];
    const double diag = a_[prow * n_ + col];
    for (std::size_t r = col + 1; r < n_; ++r) {
      const std::size_t row = perm_[r];
      const double factor = a_[row * n_ + col] / diag;
      if (factor == 0.0) continue;
      a_[row * n_ + col] = factor;  // Store L in place.
      for (std::size_t c = col + 1; c < n_; ++c) {
        a_[row * n_ + c] -= factor * a_[prow * n_ + c];
      }
      b_[row] -= factor * b_[prow];
    }
  }

  if (cache != nullptr) {
    cache->perm = perm_;
    cache->valid = true;
    if (prediction_held) {
      FINSER_OBS_COUNT("spice.mna.pivot_reuse", 1);
    } else {
      FINSER_OBS_COUNT("spice.mna.pivot_refactor", 1);
    }
  }

  // Back substitution.
  x.assign(n_, 0.0);
  for (std::size_t ri = n_; ri-- > 0;) {
    const std::size_t row = perm_[ri];
    double acc = b_[row];
    for (std::size_t c = ri + 1; c < n_; ++c) {
      acc -= a_[row * n_ + c] * x[c];
    }
    x[ri] = acc / a_[row * n_ + ri];
    if (!std::isfinite(x[ri])) {
      throw util::NumericalError("Mna::solve: non-finite solution component");
    }
  }
}

}  // namespace finser::spice
