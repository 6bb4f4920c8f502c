#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fault/chaos.h"
#include "fault/circuit_breaker.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/retrying.h"
#include "util/virtual_clock.h"

/// Multi-threaded hammers for the resilience layer (run under TSan in CI,
/// alongside tests/oracle/test_concurrent_access.cpp).  Concurrency makes
/// per-thread sequences scheduler-dependent, so these tests assert
/// *conservation*: every call is accounted for exactly once, and the
/// breaker/budget books balance against the observed outcomes.

namespace lcaknap::fault {
namespace {

constexpr int kThreads = 8;
constexpr int kCallsPerThread = 4'000;

TEST(ConcurrentResilience, BreakerHammerConservesOutcomes) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 64, 1);
  const oracle::MaterializedAccess storage(inst);
  metrics::Registry registry;
  const ChaosAccess flaky(storage, parse_fault_plan("flaky:0:fail=0.3", /*seed=*/21),
                          util::system_clock(), /*armed=*/true, registry);
  util::VirtualClock clock;
  CircuitBreakerConfig config;
  config.window = 16;
  config.failure_rate_threshold = 0.5;
  config.consecutive_failures = 4;
  config.open_cooldown_us = 200;
  config.half_open_probes = 2;
  const BreakerAccess guarded(flaky, config, clock, registry);

  std::atomic<std::uint64_t> ok{0}, unavailable{0}, rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        try {
          (void)guarded.query(static_cast<std::size_t>((t + i) % 64));
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const CircuitOpen&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          // Let the cooldown elapse on the shared virtual timeline so the
          // breaker flaps between open/half-open/closed under contention.
          clock.advance_us(50);
        } catch (const oracle::OracleUnavailable&) {
          unavailable.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kCallsPerThread;
  // Outcome conservation: every call ended exactly one way.
  EXPECT_EQ(ok.load() + unavailable.load() + rejected.load(), total);
  // Call conservation: exactly the non-rejected calls reached the inner
  // oracle, and each of those either succeeded or saw an injected failure.
  EXPECT_EQ(storage.query_count() + flaky.failstops_injected(), total - rejected.load());
  EXPECT_EQ(storage.query_count(), ok.load());
  EXPECT_EQ(flaky.failstops_injected(), unavailable.load());
  // Rejections are what the breaker says it rejected.
  const auto counters = guarded.breaker().counters();
  EXPECT_EQ(counters.rejected, rejected.load());
  // Transition books balance: the breaker can only reach half-open from
  // open, and only close from half-open; at most one trip is unresolved.
  EXPECT_GT(counters.to_open, 0u);
  EXPECT_LE(counters.to_half_open, counters.to_open);
  EXPECT_LE(counters.to_closed, counters.to_half_open);
  EXPECT_GE(counters.to_open, counters.to_half_open);
}

TEST(ConcurrentResilience, RetryBudgetAccountingStaysBounded) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 64, 2);
  const oracle::MaterializedAccess storage(inst);
  metrics::Registry registry;
  const ChaosAccess flaky(storage, parse_fault_plan("flaky:0:fail=0.4", /*seed=*/33),
                          util::system_clock(), /*armed=*/true, registry);
  util::VirtualClock clock;
  oracle::RetryConfig config;
  config.max_attempts = 5;
  config.base_backoff_us = 10;
  config.max_backoff_us = 100;
  config.retry_budget_ratio = 0.2;
  config.retry_budget_initial = 64;
  const oracle::RetryingAccess retrying(flaky, config, clock, registry);

  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        try {
          (void)retrying.query(static_cast<std::size_t>((t + i) % 64));
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const oracle::OracleUnavailable&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kCallsPerThread;
  EXPECT_EQ(ok.load() + failed.load(), total);
  // Inner-call conservation: every inner call is a first attempt or a retry.
  EXPECT_EQ(storage.query_count() + flaky.failstops_injected(),
            total + retrying.retries_performed());
  // Budget accounting under contention is optimistically relaxed: each
  // concurrent caller may overspend by at most one token, so total retries
  // never exceed the funded allowance plus that per-thread slack.
  const auto allowance =
      config.retry_budget_initial +
      static_cast<std::uint64_t>(config.retry_budget_ratio *
                                 static_cast<double>(ok.load()));
  EXPECT_LE(retrying.retries_performed(), allowance + kThreads);
  // The budget valve really engaged: with a 40% failure rate and a 0.2
  // ratio, demand for retries outstrips supply.
  EXPECT_GT(retrying.budget_exhausted(), 0u);
  // Sleeps all landed on the virtual clock (no real waiting in this test).
  EXPECT_EQ(retrying.backoff_slept_us(), clock.now_us());
}

}  // namespace
}  // namespace lcaknap::fault
