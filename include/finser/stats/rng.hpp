#pragma once
/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for Monte Carlo.
///
/// finser implements xoshiro256++ (Blackman & Vigna) seeded through
/// SplitMix64 rather than using std::mt19937 so that results are
/// bit-reproducible across standard libraries and platforms — MC campaigns
/// in EXPERIMENTS.md quote seeds. Gaussian variates use the polar
/// (Marsaglia) method for the same reason: std::normal_distribution's
/// algorithm is implementation-defined.

#include <cstdint>

#include "finser/util/error.hpp"

namespace finser::stats {

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words via SplitMix64(\p seed).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit output.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53-bit mantissa construction => uniform on [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    FINSER_REQUIRE(hi >= lo, "Rng::uniform: hi < lo");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n) for n > 0 (Lemire's method).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal variate (Marsaglia polar method).
  double normal();

  /// Normal variate with mean \p mu and standard deviation \p sigma.
  double normal(double mu, double sigma);

  /// Exponential variate with rate \p lambda (> 0).
  double exponential(double lambda);

  /// Bernoulli trial with success probability \p p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Derive an independently seeded child stream (for sub-simulations);
  /// advances this generator once.
  Rng split();

  /// Counter-based stream derivation: a decorrelated 64-bit sub-seed for
  /// stream \p stream_id under \p root_seed, built on SplitMix64 (the root
  /// is mixed once, then the stream counter walks the SplitMix64 sequence).
  /// Stream *i* of a given root is the same value no matter which thread
  /// asks or in what order — the foundation of the exec layer's
  /// thread-count-invariant reproducibility (docs/parallelism.md).
  static std::uint64_t derive_seed(std::uint64_t root_seed,
                                   std::uint64_t stream_id);

  /// Generator seeded with derive_seed(root_seed, stream_id).
  static Rng stream(std::uint64_t root_seed, std::uint64_t stream_id);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace finser::stats
