#include "common/zipf.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace domino {
namespace {

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfGenerator(0, 0.75), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, -1.0), std::invalid_argument);
}

TEST(Zipf, RejectsNonFiniteAlpha) {
  // NaN compares false against 0, so it used to build an all-NaN table
  // whose sample() always returned rank 0.
  EXPECT_THROW(ZipfGenerator(10, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, -std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Zipf, GeneratorsSharingATableDrawTheSameStream) {
  // Generators with equal (n, alpha) share one table; a different alpha
  // gets its own, and a table freed with its last holder is rebuilt.
  auto draws = [](const ZipfGenerator& z) {
    Rng rng(7);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 1000; ++i) out.push_back(z.sample(rng));
    return out;
  };
  const ZipfGenerator a(5000, 0.75);
  const ZipfGenerator b(5000, 0.75);
  const ZipfGenerator c(5000, 0.95);
  const auto first = draws(a);
  EXPECT_EQ(draws(b), first);
  EXPECT_NE(draws(c), first);
  std::vector<std::uint64_t> rebuilt;
  {
    const ZipfGenerator lone(321, 1.1);
    rebuilt = draws(lone);
  }
  EXPECT_EQ(draws(ZipfGenerator(321, 1.1)), rebuilt);
}

TEST(Zipf, SamplesWithinRange) {
  ZipfGenerator z(100, 0.75);
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(z.sample(rng), 100u);
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfGenerator z(10, 0.0);
  Rng rng(2);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

TEST(Zipf, SkewFavorsLowRanks) {
  ZipfGenerator z(1000, 0.95);
  Rng rng(3);
  std::vector<int> counts(1000, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[999] * 5);
}

TEST(Zipf, HigherAlphaIsMoreSkewed) {
  Rng rng_a(4), rng_b(4);
  ZipfGenerator mild(1000, 0.75), heavy(1000, 0.95);
  const int n = 50'000;
  int mild_top = 0, heavy_top = 0;
  for (int i = 0; i < n; ++i) {
    if (mild.sample(rng_a) == 0) ++mild_top;
    if (heavy.sample(rng_b) == 0) ++heavy_top;
  }
  EXPECT_GT(heavy_top, mild_top);
}

TEST(Zipf, RatioMatchesTheory) {
  // P(0)/P(1) should be 2^alpha.
  ZipfGenerator z(2, 1.0);
  Rng rng(5);
  int zero = 0;
  const int n = 300'000;
  for (int i = 0; i < n; ++i) {
    if (z.sample(rng) == 0) ++zero;
  }
  // P(0) = 1 / (1 + 1/2) = 2/3.
  EXPECT_NEAR(static_cast<double>(zero) / n, 2.0 / 3.0, 0.01);
}

}  // namespace
}  // namespace domino
