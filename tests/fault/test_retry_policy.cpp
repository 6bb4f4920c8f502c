#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/retrying.h"
#include "util/virtual_clock.h"

namespace lcaknap::oracle {
namespace {

/// Fails or succeeds per a fixed script (true = throw), then succeeds.
class ScriptedAccess final : public InstanceAccess {
 public:
  ScriptedAccess(const InstanceAccess& inner, std::vector<bool> failures)
      : inner_(&inner), failures_(std::move(failures)) {}

  [[nodiscard]] std::size_t size() const noexcept override { return inner_->size(); }
  [[nodiscard]] std::int64_t capacity() const noexcept override {
    return inner_->capacity();
  }
  [[nodiscard]] std::int64_t total_profit() const noexcept override {
    return inner_->total_profit();
  }
  [[nodiscard]] std::int64_t total_weight() const noexcept override {
    return inner_->total_weight();
  }

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override {
    step();
    return inner_->query(i);
  }
  [[nodiscard]] WeightedDraw do_sample(util::Xoshiro256& rng) const override {
    step();
    return inner_->weighted_sample(rng);
  }

 private:
  void step() const {
    const auto n = next_++;
    if (n < failures_.size() && failures_[n]) throw OracleUnavailable();
  }

  const InstanceAccess* inner_;
  std::vector<bool> failures_;
  mutable std::size_t next_ = 0;
};

std::vector<bool> always_fail(std::size_t n) { return std::vector<bool>(n, true); }

class RetryPolicyTest : public ::testing::Test {
 protected:
  RetryPolicyTest()
      : inst_(knapsack::make_family(knapsack::Family::kUncorrelated, 30, 1)),
        storage_(inst_) {}

  knapsack::Instance inst_;
  MaterializedAccess storage_;
  util::VirtualClock clock_;
  metrics::Registry registry_;
};

TEST_F(RetryPolicyTest, BackoffSleepsOnInjectedClockWithinBounds) {
  RetryConfig config;
  config.max_attempts = 8;
  config.base_backoff_us = 100;
  config.max_backoff_us = 10'000;
  config.backoff_multiplier = 3.0;
  const ScriptedAccess dead(storage_, always_fail(64));
  const RetryingAccess retrying(dead, config, clock_, registry_);

  EXPECT_THROW((void)retrying.query(0), OracleUnavailable);
  EXPECT_EQ(retrying.retries_performed(), 7u);  // 8 attempts = 7 retries
  EXPECT_EQ(retrying.backoff_slept_us(), clock_.now_us());
  // 7 sleeps, each in [base, max].
  EXPECT_GE(retrying.backoff_slept_us(), 7u * 100u);
  EXPECT_LE(retrying.backoff_slept_us(), 7u * 10'000u);
  const auto& hist = registry_.histogram(
      "oracle_backoff_sleep_us",
      "Backoff sleeps between oracle retry attempts, in microseconds",
      backoff_sleep_buckets());
  EXPECT_EQ(hist.count(), 7u);
  EXPECT_EQ(hist.sum(), static_cast<double>(retrying.backoff_slept_us()));
}

TEST_F(RetryPolicyTest, JitterIsDeterministicPerSeed) {
  RetryConfig config;
  config.max_attempts = 10;
  config.base_backoff_us = 50;
  config.max_backoff_us = 100'000;
  const auto slept = [&](std::uint64_t seed) {
    auto seeded = config;
    seeded.jitter_seed = seed;
    util::VirtualClock clock;
    metrics::Registry registry;
    const ScriptedAccess dead(storage_, always_fail(64));
    const RetryingAccess retrying(dead, seeded, clock, registry);
    EXPECT_THROW((void)retrying.query(0), OracleUnavailable);
    return retrying.backoff_slept_us();
  };
  EXPECT_EQ(slept(7), slept(7));
  EXPECT_NE(slept(7), slept(8));
}

TEST_F(RetryPolicyTest, BudgetBoundsTotalRetries) {
  RetryConfig config;
  config.max_attempts = 10;
  config.retry_budget_ratio = 0.5;
  config.retry_budget_initial = 3;
  const ScriptedAccess dead(storage_, always_fail(1'000));
  const RetryingAccess retrying(dead, config, clock_, registry_);

  // First call: 3 funded retries, then the purse is empty and the failure
  // escapes on attempt 4 of 10.
  EXPECT_THROW((void)retrying.query(0), OracleUnavailable);
  EXPECT_EQ(retrying.retries_performed(), 3u);
  EXPECT_EQ(retrying.budget_exhausted(), 1u);

  // With zero successes nothing is earned: later calls fail immediately.
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW((void)retrying.query(0), OracleUnavailable);
  }
  EXPECT_EQ(retrying.retries_performed(), 3u);
  EXPECT_EQ(retrying.budget_exhausted(), 6u);
  EXPECT_EQ(registry_
                .counter("oracle_retry_budget_exhausted_total",
                         "Oracle calls that gave up because the global retry "
                         "budget was empty")
                .value(),
            6u);
}

TEST_F(RetryPolicyTest, SuccessesReplenishTheBudget) {
  RetryConfig config;
  config.max_attempts = 10;
  config.retry_budget_ratio = 1.0;  // one retry token per successful call
  config.retry_budget_initial = 0;
  // Script: 1 failure (unfunded, escapes), 2 successes (earn 2 tokens),
  // then fail-fail-success — both retries are funded and the call succeeds.
  const ScriptedAccess scripted(storage_, {true, false, false, true, true, false});
  const RetryingAccess retrying(scripted, config, clock_, registry_);

  EXPECT_THROW((void)retrying.query(0), OracleUnavailable);
  EXPECT_EQ(retrying.budget_exhausted(), 1u);
  EXPECT_EQ(retrying.query(1), inst_.item(1));
  EXPECT_EQ(retrying.query(2), inst_.item(2));
  EXPECT_EQ(retrying.query(3), inst_.item(3));  // absorbs two failures
  EXPECT_EQ(retrying.retries_performed(), 2u);
  EXPECT_EQ(retrying.budget_exhausted(), 1u);
}

TEST_F(RetryPolicyTest, AttemptTimeoutCapsRetryTime) {
  RetryConfig config;
  config.max_attempts = 100;
  config.base_backoff_us = 1'000;
  config.max_backoff_us = 1'000'000;
  config.backoff_multiplier = 1.0;  // every sleep is exactly base
  config.attempt_timeout_us = 2'500;
  const ScriptedAccess dead(storage_, always_fail(1'000));
  const RetryingAccess retrying(dead, config, clock_, registry_);

  EXPECT_THROW((void)retrying.query(0), OracleUnavailable);
  // Sleeps land at 1000 and 2000 us of call time; the third would end at
  // 3000 >= 2500, so the policy gives up instead of sleeping.
  EXPECT_EQ(retrying.retries_performed(), 2u);
  EXPECT_EQ(retrying.timed_out(), 1u);
  EXPECT_EQ(clock_.now_us(), 2'000u);
}

TEST_F(RetryPolicyTest, LegacyShapeRetriesImmediately) {
  const ScriptedAccess flaky_twice(storage_, {true, true, false});
  const RetryingAccess retrying(flaky_twice, RetryConfig{}, clock_, registry_);
  EXPECT_EQ(retrying.query(5), inst_.item(5));
  EXPECT_EQ(retrying.retries_performed(), 2u);
  EXPECT_EQ(retrying.backoff_slept_us(), 0u);  // defaults: no backoff
  EXPECT_EQ(retrying.timed_out(), 0u);
  EXPECT_EQ(retrying.budget_exhausted(), 0u);
}

TEST_F(RetryPolicyTest, ValidatesConfig) {
  RetryConfig config;
  config.max_attempts = 0;
  EXPECT_THROW(RetryingAccess(storage_, config, clock_, registry_),
               std::invalid_argument);
  config = RetryConfig{};
  config.base_backoff_us = 1'000;
  config.max_backoff_us = 100;
  EXPECT_THROW(RetryingAccess(storage_, config, clock_, registry_),
               std::invalid_argument);
  config = RetryConfig{};
  config.backoff_multiplier = 0.5;
  EXPECT_THROW(RetryingAccess(storage_, config, clock_, registry_),
               std::invalid_argument);
  config.backoff_multiplier = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RetryingAccess(storage_, config, clock_, registry_),
               std::invalid_argument);
  config = RetryConfig{};
  config.retry_budget_ratio = -0.5;
  EXPECT_THROW(RetryingAccess(storage_, config, clock_, registry_),
               std::invalid_argument);
  config.retry_budget_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RetryingAccess(storage_, config, clock_, registry_),
               std::invalid_argument);
}

}  // namespace
}  // namespace lcaknap::oracle
