#include "iky/eps.h"

#include <gtest/gtest.h>

#include <vector>

#include "knapsack/generators.h"

namespace lcaknap::iky {
namespace {

TEST(CheckEps, AcceptsExactConstruction) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 20'000, 11);
  const double eps = 0.2;
  const auto thresholds = exact_eps(inst, eps);
  ASSERT_GE(thresholds.size(), 2u);
  // Per-item granularity can overshoot a band by one item's mass; with
  // 20k items that is well under the eps^2 slack plus a tiny cushion.
  const auto validity = check_eps(inst, thresholds, eps, /*slack=*/0.02);
  EXPECT_TRUE(validity.valid);
  for (std::size_t k = 0; k + 1 < validity.band_masses.size(); ++k) {
    EXPECT_NEAR(validity.band_masses[k], eps, eps * eps + 0.021);
  }
}

TEST(CheckEps, RejectsBadThresholds) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 5'000, 12);
  // A single absurd threshold putting everything in one band.
  const std::vector<double> bogus{1e-9};
  const auto validity = check_eps(inst, bogus, 0.2);
  EXPECT_FALSE(validity.valid);
}

TEST(CheckEps, RequiresNonIncreasingThresholds) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 1'000, 13);
  const std::vector<double> increasing{1.0, 2.0};
  EXPECT_THROW(check_eps(inst, increasing, 0.2), std::invalid_argument);
}

TEST(ExactEps, ThresholdsAreStrictlyDecreasing) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 10'000, 16);
  const auto thresholds = exact_eps(inst, 0.15);
  ASSERT_GE(thresholds.size(), 2u);
  for (std::size_t k = 1; k < thresholds.size(); ++k) {
    EXPECT_LT(thresholds[k], thresholds[k - 1]);
  }
}

TEST(ExactEps, AtomicEfficiencyYieldsNoUsableBands) {
  // Subset-sum: all efficiencies equal; an EPS with eps-mass bands cannot
  // exist (finding F2), and the exact construction collapses to at most one
  // threshold.
  const auto inst = knapsack::make_family(knapsack::Family::kSubsetSum, 2'000, 17);
  const auto thresholds = exact_eps(inst, 0.2);
  EXPECT_LE(thresholds.size(), 1u);
}

TEST(ExactEps, ValidatesEps) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 100, 18);
  EXPECT_THROW(exact_eps(inst, 0.0), std::invalid_argument);
  EXPECT_THROW(exact_eps(inst, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace lcaknap::iky
