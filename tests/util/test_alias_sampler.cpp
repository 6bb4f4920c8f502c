#include "util/alias_sampler.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/stats.h"

namespace lcaknap::util {
namespace {

TEST(AliasSampler, RejectsBadWeights) {
  EXPECT_THROW(AliasSampler(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasSampler(std::vector<double>{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasSampler(std::vector<double>{1.0, -1.0}), std::invalid_argument);
}

TEST(AliasSampler, SingleBucketAlwaysSampled) {
  const AliasSampler sampler(std::vector<double>{3.0});
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(AliasSampler, ZeroWeightNeverSampled) {
  const AliasSampler sampler(std::vector<double>{1.0, 0.0, 1.0});
  Xoshiro256 rng(2);
  for (int i = 0; i < 10'000; ++i) EXPECT_NE(sampler.sample(rng), 1u);
}

TEST(AliasSampler, MatchesDistributionChiSquare) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const AliasSampler sampler(weights);
  Xoshiro256 rng(3);
  std::vector<std::size_t> counts(weights.size(), 0);
  constexpr int kTrials = 200'000;
  for (int i = 0; i < kTrials; ++i) ++counts[sampler.sample(rng)];
  const std::vector<double> probs{0.1, 0.2, 0.3, 0.4};
  // 3 degrees of freedom: 99.9th percentile ~16.3.
  EXPECT_LT(chi_square(counts, probs), 16.3);
}

TEST(AliasSampler, HighlySkewedWeights) {
  // One item carries 99.9% of the mass — the "needle" pattern weighted
  // sampling exists to catch.
  std::vector<double> weights(1000, 0.001);
  weights[500] = 999.0;
  const AliasSampler sampler(weights);
  Xoshiro256 rng(4);
  int hits = 0;
  constexpr int kTrials = 10'000;
  for (int i = 0; i < kTrials; ++i) {
    if (sampler.sample(rng) == 500) ++hits;
  }
  EXPECT_GT(hits, kTrials * 0.99 * 0.995);
}

TEST(AliasSampler, GoldenDrawsArePinned) {
  // The weighted-sampling oracle's draws feed every warm-up, so how the
  // table is built must never change a draw.  These 64 draws pin it for a
  // fixed seed over a skewed vector with zeros.
  const AliasSampler sampler(std::vector<double>{
      0.0, 9.0, 0.5, 0.0, 120.0, 1.0, 0.0, 0.25, 30.0, 0.0, 2.0, 7.5, 0.0,
      0.125, 60.0, 3.0});
  const std::vector<std::size_t> golden{
      14, 4, 4, 4,  4, 4, 14, 4,  4,  14, 8,  11, 14, 4, 4,  4,
      4,  4, 4, 14, 4, 4, 7,  14, 14, 14, 1,  4,  8,  4, 4,  8,
      4,  1, 8, 14, 14, 8, 4, 4,  8,  8,  14, 10, 11, 8, 4,  4,
      14, 4, 8, 8,  14, 4, 4, 14, 14, 14, 4,  4,  14, 4, 8,  4};
  Xoshiro256 rng(0xA11A5);
  std::vector<std::size_t> draws;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    draws.push_back(sampler.sample(rng));
  }
  EXPECT_EQ(draws, golden);
}

}  // namespace
}  // namespace lcaknap::util
