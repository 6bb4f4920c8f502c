#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace lcaknap::util {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci_half_width(), 0.0);
}

TEST(RunningStats, CiShrinksWithSamples) {
  Xoshiro256 rng(1);
  RunningStats small, large;
  for (int i = 0; i < 100; ++i) small.add(rng.next_double());
  for (int i = 0; i < 10'000; ++i) large.add(rng.next_double());
  EXPECT_GT(small.ci_half_width(), large.ci_half_width());
}

TEST(EmpiricalCdf, StepFunctionValues) {
  const std::vector<double> data{1.0, 2.0, 2.0, 5.0};
  const EmpiricalCdf cdf(data);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(4.9), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(5.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInverseOfCdf) {
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
  const EmpiricalCdf cdf(data);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.75), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(EmpiricalCdfInt, MatchesDoubleVersion) {
  const std::vector<std::int64_t> data{3, 1, 4, 1, 5};
  const EmpiricalCdfInt cdf(data);
  EXPECT_DOUBLE_EQ(cdf.at(0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1), 0.4);
  EXPECT_DOUBLE_EQ(cdf.at(4), 0.8);
  EXPECT_DOUBLE_EQ(cdf.at(5), 1.0);
  EXPECT_EQ(cdf.quantile(0.5), 3);
  EXPECT_EQ(cdf.quantile(0.95), 5);
}

TEST(EmpiricalCdfInt, EmptyUsesFallback) {
  const EmpiricalCdfInt cdf(std::vector<std::int64_t>{});
  EXPECT_EQ(cdf.quantile(0.5, -7), -7);
  EXPECT_DOUBLE_EQ(cdf.at(0), 0.0);
}

TEST(DkwSampleSize, MatchesClosedForm) {
  const double eps = 0.05, delta = 0.1;
  const auto n = dkw_sample_size(eps, delta);
  EXPECT_EQ(n, static_cast<std::size_t>(
                   std::ceil(std::log(2.0 / delta) / (2.0 * eps * eps))));
  // Empirical check: with n samples the sup-deviation rarely exceeds eps.
  Xoshiro256 rng(2);
  int violations = 0;
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> sample(n);
    for (auto& x : sample) x = rng.next_double();
    const EmpiricalCdf cdf(sample);
    double worst = 0.0;
    for (double x = 0.0; x <= 1.0; x += 0.01) {
      worst = std::max(worst, std::abs(cdf.at(x) - x));
    }
    if (worst > eps) ++violations;
  }
  EXPECT_LE(violations, 10);  // nominal rate is 10%, allow generous margin
}

TEST(WilsonInterval, ContainsPointEstimate) {
  const auto iv = wilson_interval(80, 100);
  EXPECT_LT(iv.lo, 0.8);
  EXPECT_GT(iv.hi, 0.8);
  EXPECT_GT(iv.lo, 0.69);
  EXPECT_LT(iv.hi, 0.89);
}

TEST(WilsonInterval, DegenerateCases) {
  const auto zero = wilson_interval(0, 50);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const auto all = wilson_interval(50, 50);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  EXPECT_LT(all.lo, 1.0);
  const auto none = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 1.0);
}

TEST(EmpiricalCdfInt, CountingSortConstructorEquivalent) {
  // The histogram constructor, fed the per-value counts of a sample, must
  // read out exactly what the sorted constructor reads from the sample.
  Xoshiro256 rng(17);
  const std::int64_t domain = 1 << 12;
  std::vector<std::int64_t> data(50'000);
  std::vector<std::size_t> counts(static_cast<std::size_t>(domain), 0);
  for (auto& v : data) {
    v = static_cast<std::int64_t>(rng.next_below(domain));
    ++counts[static_cast<std::size_t>(v)];
  }
  const EmpiricalCdfInt generic(data);
  const EmpiricalCdfInt counting(std::move(counts));
  ASSERT_EQ(counting.size(), generic.size());
  for (std::int64_t x : {-1L, 0L, 1L, 7L, domain / 2, domain - 1, domain + 5}) {
    EXPECT_DOUBLE_EQ(counting.at(x), generic.at(x)) << "x=" << x;
  }
  for (const double p : {1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6}) {
    EXPECT_EQ(counting.quantile(p), generic.quantile(p)) << "p=" << p;
  }
}

TEST(EmpiricalCdfInt, CountingSortConstructorValidates) {
  // A domain of zero cells is a caller bug; any non-empty domain is valid.
  EXPECT_THROW(EmpiricalCdfInt(std::vector<std::size_t>{}), std::invalid_argument);
  EXPECT_NO_THROW(EmpiricalCdfInt(std::vector<std::size_t>{1, 0, 0, 0, 0, 0, 0, 1}));
}

TEST(EmpiricalCdfInt, CountingSortConstructorEmptyData) {
  const EmpiricalCdfInt cdf(std::vector<std::size_t>(16, 0));
  EXPECT_EQ(cdf.size(), 0u);
  EXPECT_EQ(cdf.quantile(0.5, 99), 99);
  EXPECT_DOUBLE_EQ(cdf.at(3), 0.0);
}

TEST(ChiSquare, UniformDataScoresLow) {
  Xoshiro256 rng(3);
  std::vector<std::size_t> counts(10, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[rng.next_below(10)];
  const std::vector<double> probs(10, 0.1);
  // 9 degrees of freedom: 99.9th percentile is ~27.9.
  EXPECT_LT(chi_square(counts, probs), 27.9);
}

TEST(ChiSquare, SkewedDataScoresHigh) {
  std::vector<std::size_t> counts{1000, 10, 10, 10};
  const std::vector<double> probs(4, 0.25);
  EXPECT_GT(chi_square(counts, probs), 100.0);
}

TEST(ChiSquare, RejectsBadInput) {
  const std::vector<std::size_t> counts{1, 2};
  const std::vector<double> probs{1.0};
  EXPECT_THROW(chi_square(counts, probs), std::invalid_argument);
}

}  // namespace
}  // namespace lcaknap::util
