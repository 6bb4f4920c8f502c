#include "oracle/retrying.h"

#include <gtest/gtest.h>

#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"

namespace lcaknap::oracle {
namespace {

TEST(RetryingAccess, MasksTransientFailures) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 50, 4);
  const MaterializedAccess inner(inst);
  const fault::ChaosAccess flaky(inner, fault::parse_fault_plan("flaky:0:fail=0.4", 9));
  const RetryingAccess retrying(flaky, RetryConfig{.max_attempts = 32});
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 5'000; ++i) {
    const auto item = retrying.query(static_cast<std::size_t>(i % 50));
    EXPECT_EQ(item, inst.item(static_cast<std::size_t>(i % 50)));
    (void)retrying.weighted_sample(rng);
  }
  EXPECT_GT(retrying.retries_performed(), 0u);
}

TEST(RetryingAccess, GivesUpAfterMaxAttempts) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 10, 5);
  const MaterializedAccess inner(inst);
  // 90% failure rate with only 2 attempts: failures must escape sometimes.
  const fault::ChaosAccess flaky(inner, fault::parse_fault_plan("flaky:0:fail=0.9", 11));
  const RetryingAccess retrying(flaky, RetryConfig{.max_attempts = 2});
  int escaped = 0;
  for (int i = 0; i < 500; ++i) {
    try {
      (void)retrying.query(0);
    } catch (const OracleUnavailable&) {
      ++escaped;
    }
  }
  EXPECT_GT(escaped, 300);  // ~81% expected
}

}  // namespace
}  // namespace lcaknap::oracle
