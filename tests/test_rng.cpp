#include "util/rng.hpp"

#include <algorithm>
#include <gtest/gtest.h>

#include <set>

namespace rechord::util {
namespace {

TEST(SplitMix, IsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(SplitMix, AdvancesState) {
  std::uint64_t s = 42;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(SplitMix, Mix64MatchesSingleStep) {
  std::uint64_t s = 123456789;
  EXPECT_EQ(mix64(123456789), splitmix64(s));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(1);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0U);
}

TEST(Rng, BelowCoversSmallRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, RangeInclusive) {
  Rng rng(4);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen |= v == -3;
    hi_seen |= v == 3;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(8);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(10);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);
}

TEST(DistinctU64, ProducesDistinctValues) {
  Rng rng(11);
  const auto v = distinct_u64(rng, 1000);
  EXPECT_EQ(v.size(), 1000U);
  std::set<std::uint64_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 1000U);
}

TEST(DistinctU64, DeterministicPerSeed) {
  Rng a(12), b(12);
  EXPECT_EQ(distinct_u64(a, 64), distinct_u64(b, 64));
}

TEST(DistinctU64, MatchesNaiveDrawAndReject) {
  // The hash-set membership keeps the original draw-and-reject sequence:
  // same values, same order, same number of draws consumed.
  for (std::uint64_t seed : {1, 7, 12, 99}) {
    for (std::size_t n : {0, 1, 2, 17, 1000, 5000}) {
      Rng fast(seed), naive(seed);
      std::vector<std::uint64_t> want;
      while (want.size() < n) {
        const std::uint64_t v = naive.next();
        if (std::find(want.begin(), want.end(), v) == want.end())
          want.push_back(v);
      }
      EXPECT_EQ(distinct_u64(fast, n), want) << "seed " << seed << " n " << n;
      EXPECT_EQ(fast.next(), naive.next()) << "seed " << seed << " n " << n;
    }
  }
}

TEST(Poisson, SmallRateMeanCorrect) {
  Rng rng(5);
  double sum = 0.0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i)
    sum += static_cast<double>(poisson_knuth(rng, 12.0));
  EXPECT_NEAR(sum / trials, 12.0, 0.5);
}

// Regression: exp(-rate) underflows for rate >~ 745 and the product of
// uniforms hits 0.0 after ~745 factors, which silently capped every draw
// near 745/e (~740 arrivals/round at rate 2000 -- observed in the open-loop
// throughput bench before the chunked fix).
TEST(Poisson, LargeRateNotCappedByUnderflow) {
  Rng rng(5);
  double sum = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i)
    sum += static_cast<double>(poisson_knuth(rng, 2000.0));
  EXPECT_NEAR(sum / trials, 2000.0, 60.0);
}

TEST(Poisson, LargeRateDeterministicPerSeed) {
  Rng a(9), b(9);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(poisson_knuth(a, 1234.5), poisson_knuth(b, 1234.5));
}

}  // namespace
}  // namespace rechord::util
