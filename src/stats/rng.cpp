#include "finser/stats/rng.hpp"

#include <cmath>

#include "finser/util/error.hpp"

namespace finser::stats {

namespace {

/// SplitMix64 step: used only for seeding (Vigna's recommendation).
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  FINSER_REQUIRE(n > 0, "Rng::uniform_index: n must be positive");
  // Lemire's nearly-divisionless method with rejection.
  std::uint64_t x = (*this)();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = (*this)();
      m = static_cast<unsigned __int128>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * f;
  has_cached_normal_ = true;
  return u * f;
}

double Rng::normal(double mu, double sigma) {
  FINSER_REQUIRE(sigma >= 0.0, "Rng::normal: negative sigma");
  return mu + sigma * normal();
}

double Rng::exponential(double lambda) {
  FINSER_REQUIRE(lambda > 0.0, "Rng::exponential: lambda must be positive");
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -std::log(u) / lambda;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::split() { return Rng((*this)()); }

std::uint64_t Rng::derive_seed(std::uint64_t root_seed,
                               std::uint64_t stream_id) {
  // Mix the root once so nearby user seeds land far apart, then index the
  // SplitMix64 sequence starting there by the stream counter. SplitMix64 is
  // an invertible mix of a Weyl sequence, so distinct (root, stream) pairs
  // with the same root always yield distinct sub-seeds.
  std::uint64_t x = root_seed;
  std::uint64_t cursor = splitmix64(x) + stream_id * 0x9E3779B97F4A7C15ull;
  return splitmix64(cursor);
}

Rng Rng::stream(std::uint64_t root_seed, std::uint64_t stream_id) {
  return Rng(derive_seed(root_seed, stream_id));
}

}  // namespace finser::stats
