// Multi-threaded hammer for the failure-injection stack.  The serving
// engine shares one oracle stack across all workers, so ChaosAccess /
// RetryingAccess must tolerate concurrent callers: the chaos layer decides
// each fault lock-free as a pure function of an atomic call index, counters
// are atomic, and every caller passes its own sampling tape (the documented
// single-owner object).  These tests assert the conservation laws that
// survive arbitrary interleavings; run them under TSan (the CI tsan job
// does) to catch the races assertions cannot.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "oracle/retrying.h"

namespace lcaknap::oracle {
namespace {

constexpr int kThreads = 4;
constexpr int kCallsPerThread = 10'000;

TEST(ConcurrentAccess, FlakyRetryingStackConservesCounts) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 500, 3);
  metrics::Registry registry;
  const MaterializedAccess storage(inst);
  // failure_rate 0.1 with 16 attempts: the chance any call exhausts retries
  // is 1e-16 per call — effectively zero across the hammer.
  const fault::ChaosAccess flaky(storage,
                                 fault::parse_fault_plan("flaky:0:fail=0.1", 0xF00D),
                                 util::system_clock(), /*armed=*/true, registry);
  const RetryingAccess access(flaky, RetryConfig{.max_attempts = 16},
                              util::system_clock(), registry);

  std::atomic<std::uint64_t> ok_queries{0};
  std::atomic<std::uint64_t> ok_samples{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread sampling tape: the single-owner requirement in action.
      util::Xoshiro256 tape(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kCallsPerThread; ++i) {
        if (i % 2 == 0) {
          const auto item = access.query(static_cast<std::size_t>(i) % inst.size());
          ok_queries.fetch_add(1);
          ASSERT_GE(item.profit, 0);
        } else {
          const auto draw = access.weighted_sample(tape);
          ok_samples.fetch_add(1);
          ASSERT_LT(draw.index, inst.size());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kCallsPerThread;
  // Every call eventually succeeded.
  EXPECT_EQ(ok_queries.load() + ok_samples.load(), total);
  // Conservation through the stack: storage saw exactly the successful
  // calls; every injected failure was absorbed by exactly one retry.
  EXPECT_EQ(storage.access_count(), total);
  EXPECT_EQ(flaky.failstops_injected(), access.retries_performed());
  EXPECT_GT(flaky.failstops_injected(), 0u);  // the injector actually fired
  // The chaos layer's own counters saw successes + failures.
  EXPECT_EQ(flaky.access_count(), total + flaky.failstops_injected());
  EXPECT_EQ(flaky.calls_seen(), total + flaky.failstops_injected());
  // Registry mirrors the local accessors exactly.
  EXPECT_EQ(registry.counter_value("fault_injected_total", {{"kind", "failstop"}}),
            flaky.failstops_injected());
  EXPECT_EQ(registry.counter_value("oracle_retries_total"),
            access.retries_performed());
}

TEST(ConcurrentAccess, FailureRateSurvivesContention) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 200, 5);
  metrics::Registry registry;
  const MaterializedAccess storage(inst);
  const fault::ChaosAccess flaky(storage,
                                 fault::parse_fault_plan("flaky:0:fail=0.2", 0xBEEF),
                                 util::system_clock(), /*armed=*/true, registry);

  std::atomic<std::uint64_t> failures_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        try {
          (void)flaky.query(static_cast<std::size_t>(i) % inst.size());
        } catch (const OracleUnavailable&) {
          failures_seen.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Exactly-once failure delivery: the decorator's count equals the number
  // of exceptions observed across all threads (nothing lost or doubled).
  EXPECT_EQ(flaky.failstops_injected(), failures_seen.load());
  // Contention does not bend the rate: each call's decision is a pure
  // function of its own call index, so 40k draws at p = 0.2 concentrate
  // tightly around 8000 (+-5 sigma ~ +-400).
  const double total = static_cast<double>(kThreads) * kCallsPerThread;
  const double rate = static_cast<double>(failures_seen.load()) / total;
  EXPECT_NEAR(rate, 0.2, 0.01);
}

}  // namespace
}  // namespace lcaknap::oracle
