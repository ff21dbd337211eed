#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

#include "finser/stats/direction.hpp"
#include "finser/stats/rng.hpp"
#include "finser/stats/summary.hpp"
#include "finser/util/error.hpp"

namespace finser::stats {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, GoldenValuesForCrossPlatformReproducibility) {
  // EXPERIMENTS.md promises bit-identical reruns; these reference outputs
  // pin the xoshiro256++/SplitMix64 implementation across platforms and
  // standard libraries.
  Rng r(42);
  const std::uint64_t expected[5] = {
      15021278609987233951ull, 5881210131331364753ull, 18149643915985481100ull,
      12933668939759105464ull, 14637574242682825331ull};
  for (std::uint64_t e : expected) EXPECT_EQ(r(), e);

  Rng u(20140601);  // The bench seed.
  EXPECT_DOUBLE_EQ(u.uniform(), 0.0039949576277070742);
  EXPECT_DOUBLE_EQ(u.uniform(), 0.36822370663179094);
  EXPECT_DOUBLE_EQ(u.uniform(), 0.85496988337738011);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.003);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(r.uniform(1.0, 0.0), util::InvalidArgument);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng r(5);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[r.uniform_index(7)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 7, 5 * std::sqrt(n / 7.0));
  EXPECT_THROW(r.uniform_index(0), util::InvalidArgument);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
  EXPECT_THROW(r.normal(0.0, -1.0), util::InvalidArgument);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.005);
  EXPECT_THROW(r.exponential(0.0), util::InvalidArgument);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 1e5, 0.3, 0.01);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_FALSE(r.bernoulli(-0.5));
  EXPECT_TRUE(r.bernoulli(1.5));
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(99), parent2(99);
  Rng c1 = parent1.split();
  Rng c2 = parent2.split();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c1(), c2());
  // Child differs from a fresh parent continuation.
  Rng c3 = parent1.split();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (c1() == c3()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------------
// RunningStats
// ---------------------------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_of_mean(), 0.0);
}

TEST(RunningStats, KnownSmallSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // Unbiased.
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.37) * 3.0 + i * 0.01;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, StderrShrinksWithSamples) {
  Rng r(23);
  RunningStats small, large;
  for (int i = 0; i < 100; ++i) small.add(r.normal());
  for (int i = 0; i < 10000; ++i) large.add(r.normal());
  EXPECT_GT(small.stderr_of_mean(), large.stderr_of_mean());
}

// ---------------------------------------------------------------------------
// Direction sampling
// ---------------------------------------------------------------------------

TEST(Direction, IsotropicSphereIsUnitAndBalanced) {
  Rng r(31);
  RunningStats zsum;
  for (int i = 0; i < 20000; ++i) {
    const auto v = isotropic_sphere(r);
    EXPECT_NEAR(v.norm(), 1.0, 1e-12);
    zsum.add(v.z);
  }
  EXPECT_NEAR(zsum.mean(), 0.0, 0.02);  // Symmetric in z.
}

TEST(Direction, HemisphereIsDownward) {
  Rng r(37);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LE(isotropic_hemisphere_down(r).z, 0.0);
    EXPECT_LE(cosine_hemisphere_down(r).z, 0.0);
  }
}

TEST(Direction, IsotropicHemisphereCosineMoment) {
  // For an isotropic hemisphere, E[|cos θ|] = 1/2.
  Rng r(41);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(-isotropic_hemisphere_down(r).z);
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Direction, CosineHemisphereCosineMoment) {
  // For a cosine-law hemisphere, E[|cos θ|] = 2/3.
  Rng r(43);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(-cosine_hemisphere_down(r).z);
  EXPECT_NEAR(s.mean(), 2.0 / 3.0, 0.01);
}

}  // namespace
}  // namespace finser::stats
