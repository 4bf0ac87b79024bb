#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/contracts.h"
#include "common/rng.h"
#include "common/timer.h"

namespace dc = diffpattern::common;

TEST(Contracts, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DP_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(DP_REQUIRE(true, "fine"));
}

TEST(Contracts, CheckThrowsLogicError) {
  EXPECT_THROW(DP_CHECK(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(DP_CHECK(true, "fine"));
}

TEST(Contracts, MessageContainsContext) {
  try {
    DP_REQUIRE(1 == 2, "custom context");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  dc::Rng a(42);
  dc::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  dc::Rng a(1);
  dc::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntBoundsInclusive) {
  dc::Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3U);
}

TEST(Rng, BernoulliExtremes) {
  dc::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  dc::Rng rng(11);
  const int n = 20000;
  double mean = 0.0;
  double var = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    mean += v;
    var += v * v;
  }
  mean /= n;
  var = var / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, CategoricalRespectsWeights) {
  dc::Rng rng(13);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.categorical(w)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, CategoricalRejectsBadInput) {
  dc::Rng rng(1);
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  dc::Rng parent(99);
  dc::Rng child1 = parent.split();
  dc::Rng child2 = parent.split();
  // Children seeded from different parent draws should not track each other.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.uniform() == child2.uniform()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ShufflePermutes) {
  dc::Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, Splitmix64NextMatchesTheReferenceSequence) {
  // Router placement, reconnect jitter and chaos fault fates all draw from
  // this sequence; the reference splitmix64 outputs for state 0 pin it.
  std::uint64_t state = 0;
  EXPECT_EQ(dc::splitmix64_next(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(dc::splitmix64_next(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(dc::splitmix64_next(state), 0x06C45D188009454FULL);
  EXPECT_EQ(state, 3 * 0x9E3779B97F4A7C15ULL);
}

TEST(Timer, MeasuresNonNegativeTime) {
  dc::Timer t;
  double sink = 0.0;
  for (int i = 0; i < 10000; ++i) {
    sink += std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(t.seconds(), 0.0);
}
