#include "fault/circuit_breaker.h"

#include <gtest/gtest.h>

#include <limits>

#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "util/virtual_clock.h"

namespace lcaknap::fault {
namespace {

CircuitBreakerConfig small_config() {
  CircuitBreakerConfig config;
  config.window = 8;
  config.failure_rate_threshold = 0.5;
  config.consecutive_failures = 3;
  config.open_cooldown_us = 10'000;
  config.half_open_probes = 2;
  return config;
}

TEST(CircuitBreaker, RejectsBadConfig) {
  util::VirtualClock clock;
  metrics::Registry registry;
  auto config = small_config();
  config.window = 0;
  EXPECT_THROW(CircuitBreaker(config, clock, registry), std::invalid_argument);
  config = small_config();
  config.failure_rate_threshold = 1.5;
  EXPECT_THROW(CircuitBreaker(config, clock, registry), std::invalid_argument);
  config.failure_rate_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CircuitBreaker(config, clock, registry), std::invalid_argument);
  config = small_config();
  config.half_open_probes = 0;
  EXPECT_THROW(CircuitBreaker(config, clock, registry), std::invalid_argument);
}

TEST(CircuitBreaker, TripsOnConsecutiveFailures) {
  util::VirtualClock clock;
  metrics::Registry registry;
  CircuitBreaker breaker(small_config(), clock, registry);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  }
  // A success resets the consecutive counter...
  ASSERT_TRUE(breaker.allow());
  breaker.record_success();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // ...so the third uninterrupted failure is what trips it.
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().to_open, 1u);
}

TEST(CircuitBreaker, TripsOnWindowFailureRate) {
  util::VirtualClock clock;
  metrics::Registry registry;
  auto config = small_config();
  config.consecutive_failures = 0;  // isolate the rate trip
  CircuitBreaker breaker(config, clock, registry);
  // Alternate success/failure: never 2 consecutive, but once the 8-wide
  // window is full at 4/8 = 50% failures the rate trip fires.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(breaker.allow());
    if (i % 2 == 0) {
      breaker.record_failure();
    } else {
      breaker.record_success();
    }
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  }
  ASSERT_TRUE(breaker.allow());
  breaker.record_success();  // window full now: 4 failures, 4 successes
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();  // window stays at 4/8 = threshold: rate trip fires
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreaker, OpenRejectsUntilCooldownThenProbes) {
  util::VirtualClock clock;
  metrics::Registry registry;
  CircuitBreaker breaker(small_config(), clock, registry);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  EXPECT_FALSE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.counters().rejected, 2u);

  clock.advance_us(10'000);  // cooldown elapses on the virtual clock
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.counters().to_half_open, 1u);

  // One more probe fits the quota of 2; a third is rejected.
  EXPECT_TRUE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.counters().rejected, 3u);

  // Both probes succeed: the breaker closes and normal traffic resumes.
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.counters().to_closed, 1u);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopens) {
  util::VirtualClock clock;
  metrics::Registry registry;
  CircuitBreaker breaker(small_config(), clock, registry);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  clock.advance_us(10'000);
  ASSERT_TRUE(breaker.allow());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().to_open, 2u);
  // The cooldown restarts from the re-trip.
  EXPECT_FALSE(breaker.allow());
  clock.advance_us(10'000);
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, ClosingResetsTheWindow) {
  util::VirtualClock clock;
  metrics::Registry registry;
  auto config = small_config();
  config.consecutive_failures = 2;
  CircuitBreaker breaker(config, clock, registry);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  clock.advance_us(10'000);
  ASSERT_TRUE(breaker.allow());
  breaker.record_success();
  ASSERT_TRUE(breaker.allow());
  breaker.record_success();
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  // History was wiped on close: one new failure must not re-trip.
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, ExportsStateAndTransitions) {
  util::VirtualClock clock;
  metrics::Registry registry;
  CircuitBreaker breaker(small_config(), clock, registry);
  auto& gauge = registry.gauge(
      "breaker_state", "Circuit breaker state (0 closed, 1 open, 2 half-open)");
  EXPECT_EQ(gauge.value(), 0.0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(gauge.value(), 1.0);
  EXPECT_EQ(registry
                .counter("breaker_transitions_total",
                         "Circuit breaker state transitions", {{"to", "open"}})
                .value(),
            1u);
  clock.advance_us(10'000);
  ASSERT_TRUE(breaker.allow());
  EXPECT_EQ(gauge.value(), 2.0);
}

TEST(BreakerAccess, OpenBreakerSkipsInnerOracle) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 20, 1);
  const oracle::MaterializedAccess storage(inst);
  util::VirtualClock clock;
  metrics::Registry registry;
  const ChaosAccess dead(storage, parse_fault_plan("dead:0:fail=1", /*seed=*/5),
                         util::system_clock(), /*armed=*/true, registry);
  const BreakerAccess guarded(dead, small_config(), clock, registry);

  // Drive the breaker open against the dead oracle.
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)guarded.query(0), oracle::OracleUnavailable);
  }
  ASSERT_EQ(guarded.breaker().state(), BreakerState::kOpen);

  const auto calls_at_trip = dead.query_count();
  for (int i = 0; i < 100; ++i) {
    EXPECT_THROW((void)guarded.query(0), CircuitOpen);
  }
  // Fast-fail means the inner oracle never saw those 100 calls.
  EXPECT_EQ(dead.query_count(), calls_at_trip);
  EXPECT_EQ(guarded.breaker().counters().rejected, 100u);
}

TEST(BreakerAccess, CircuitOpenIsOracleUnavailable) {
  EXPECT_THROW(throw CircuitOpen(), oracle::OracleUnavailable);
}

TEST(BreakerAccess, BreakerStateNamesAreStable) {
  EXPECT_STREQ(breaker_state_name(BreakerState::kClosed), "closed");
  EXPECT_STREQ(breaker_state_name(BreakerState::kOpen), "open");
  EXPECT_STREQ(breaker_state_name(BreakerState::kHalfOpen), "half_open");
}

}  // namespace
}  // namespace lcaknap::fault
