#include "fault/chaos.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace lcaknap::fault {
namespace {

FaultPlan hold_plan(double fail_rate, double corrupt_rate = 0.0,
                    std::uint64_t lat_min = 0, std::uint64_t lat_max = 0,
                    std::uint64_t seed = 0xC0FFEE) {
  FaultPhase phase;
  phase.label = "hold";
  phase.duration_us = 0;
  phase.fail_rate = fail_rate;
  phase.corrupt_rate = corrupt_rate;
  phase.latency_min_us = lat_min;
  phase.latency_max_us = lat_max;
  return FaultPlan({phase}, seed);
}

TEST(ChaosAccess, FailStopRateHonored) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 50, 1);
  const oracle::MaterializedAccess inner(inst);
  util::VirtualClock clock;
  metrics::Registry registry;
  const ChaosAccess chaos(inner, hold_plan(0.3), clock, /*armed=*/true, registry);
  int failures = 0;
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) {
    try {
      (void)chaos.query(static_cast<std::size_t>(i % 50));
    } catch (const oracle::OracleUnavailable&) {
      ++failures;
    }
  }
  EXPECT_NEAR(static_cast<double>(failures) / kTrials, 0.3, 0.02);
  EXPECT_EQ(chaos.failstops_injected(), static_cast<std::uint64_t>(failures));
  EXPECT_EQ(chaos.calls_seen(), static_cast<std::uint64_t>(kTrials));
  EXPECT_EQ(registry
                .counter("fault_injected_total", "Faults injected by the chaos layer",
                         {{"kind", "failstop"}})
                .value(),
            static_cast<std::uint64_t>(failures));
}

TEST(ChaosAccess, ZeroRateNeverFails) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 10, 2);
  const oracle::MaterializedAccess inner(inst);
  util::VirtualClock clock;
  metrics::Registry registry;
  const ChaosAccess chaos(inner, hold_plan(0.0), clock, /*armed=*/true, registry);
  for (int i = 0; i < 1000; ++i) EXPECT_NO_THROW((void)chaos.query(0));
  EXPECT_EQ(chaos.failstops_injected(), 0u);
  EXPECT_EQ(chaos.calls_seen(), 1000u);
}

TEST(ChaosAccess, SameSeedSameFaultSequence) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 40, 2);
  const oracle::MaterializedAccess inner(inst);
  const auto replay = [&inst, &inner](std::uint64_t seed) {
    util::VirtualClock clock;
    metrics::Registry registry;
    const ChaosAccess chaos(inner, hold_plan(0.4, 0.0, 0, 0, seed), clock,
                            /*armed=*/true, registry);
    std::string outcomes;
    for (int i = 0; i < 4'000; ++i) {
      try {
        (void)chaos.query(static_cast<std::size_t>(i % inst.size()));
        outcomes.push_back('.');
      } catch (const oracle::OracleUnavailable&) {
        outcomes.push_back('X');
      }
    }
    return outcomes;
  };
  const auto first = replay(99);
  EXPECT_EQ(first, replay(99));   // bit-identical fault sequence
  EXPECT_NE(first, replay(100));  // and the seed actually matters
}

TEST(ChaosAccess, LatencySleepsOnInjectedClock) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 30, 3);
  const oracle::MaterializedAccess inner(inst);
  util::VirtualClock clock;
  metrics::Registry registry;
  const ChaosAccess chaos(inner, hold_plan(0.0, 0.0, 100, 400), clock,
                          /*armed=*/true, registry);
  // Queries and weighted draws alike pay: a latency phase models the RPC,
  // whichever oracle call it carries.
  constexpr int kCalls = 1'000;
  util::Xoshiro256 tape(3);
  std::uint64_t previous = clock.now_us();
  for (int i = 0; i < kCalls; ++i) {
    if (i % 2 == 0) {
      (void)chaos.query(static_cast<std::size_t>(i % 30));
    } else {
      (void)chaos.weighted_sample(tape);
    }
    const auto now = clock.now_us();
    const auto slept = now - previous;
    EXPECT_GE(slept, 100u);
    EXPECT_LE(slept, 400u);
    previous = now;
  }
  EXPECT_EQ(chaos.latencies_injected(), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(chaos.failstops_injected(), 0u);
}

TEST(ChaosAccess, DisarmedPassesThroughUncounted) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 20, 4);
  const oracle::MaterializedAccess inner(inst);
  util::VirtualClock clock;
  metrics::Registry registry;
  ChaosAccess chaos(inner, hold_plan(1.0, 0.0, 100, 400), clock,
                    /*armed=*/false, registry);
  EXPECT_EQ(chaos.phase_index(), ChaosAccess::kInactive);
  util::Xoshiro256 tape(4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NO_THROW((void)chaos.query(static_cast<std::size_t>(i % 20)));
    EXPECT_NO_THROW((void)chaos.weighted_sample(tape));
  }
  EXPECT_EQ(chaos.calls_seen(), 0u);
  EXPECT_EQ(chaos.failstops_injected(), 0u);
  // Disarmed calls pay no latency: a warm-up run through a disarmed layer
  // costs no modelled time.
  EXPECT_EQ(chaos.latencies_injected(), 0u);
  EXPECT_EQ(clock.now_us(), 0u);
}

TEST(ChaosAccess, ArmRestartsPhaseSchedule) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 20, 5);
  const oracle::MaterializedAccess inner(inst);
  util::VirtualClock clock;
  metrics::Registry registry;
  FaultPhase outage;
  outage.label = "outage";
  outage.duration_us = 100'000;
  outage.fail_rate = 1.0;
  FaultPhase recovered;
  recovered.label = "recovered";
  recovered.duration_us = 0;
  ChaosAccess chaos(inner, FaultPlan({outage, recovered}, 6), clock,
                    /*armed=*/false, registry);
  // A long warm-up elapses while disarmed; arming must restart the script,
  // not resume it mid-way.
  clock.advance_us(10'000'000);
  chaos.arm();
  EXPECT_EQ(chaos.phase_index(), 0u);
  EXPECT_THROW((void)chaos.query(0), oracle::OracleUnavailable);
  clock.advance_us(100'000);  // outage window passes
  EXPECT_EQ(chaos.phase_index(), 1u);
  EXPECT_NO_THROW((void)chaos.query(0));
  EXPECT_EQ(registry
                .gauge("fault_plan_phase",
                       "Index of the fault plan phase currently active")
                .value(),
            1.0);
}

TEST(ChaosAccess, CorruptionViolatesAnInstanceInvariant) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 40, 7);
  const oracle::MaterializedAccess inner(inst);
  util::VirtualClock clock;
  metrics::Registry registry;
  const ChaosAccess chaos(inner, hold_plan(0.0, 1.0), clock, /*armed=*/true,
                          registry);
  for (std::size_t i = 0; i < 40; ++i) {
    const auto item = chaos.query(i);
    const bool violates = item.profit > chaos.total_profit() || item.weight < 0 ||
                          item.weight > chaos.total_weight();
    EXPECT_TRUE(violates) << "corrupted item " << i << " satisfies all invariants";
    EXPECT_NE(item, inst.item(i));
  }
  EXPECT_EQ(chaos.corruptions_injected(), 40u);

  // Sampled draws corrupt too (sometimes via an out-of-range index).
  util::Xoshiro256 rng(11);
  bool saw_bad_index = false;
  for (int i = 0; i < 200; ++i) {
    const auto draw = chaos.weighted_sample(rng);
    if (draw.index >= chaos.size()) saw_bad_index = true;
  }
  EXPECT_TRUE(saw_bad_index);
}

TEST(ChaosAccess, CorruptionRateHonored) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 50, 8);
  const oracle::MaterializedAccess inner(inst);
  util::VirtualClock clock;
  metrics::Registry registry;
  const ChaosAccess chaos(inner, hold_plan(0.0, 0.2), clock, /*armed=*/true,
                          registry);
  constexpr int kTrials = 20'000;
  int corrupted = 0;
  for (int i = 0; i < kTrials; ++i) {
    const auto index = static_cast<std::size_t>(i % 50);
    if (chaos.query(index) != inst.item(index)) ++corrupted;
  }
  EXPECT_NEAR(static_cast<double>(corrupted) / kTrials, 0.2, 0.02);
  EXPECT_EQ(chaos.corruptions_injected(), static_cast<std::uint64_t>(corrupted));
}

}  // namespace
}  // namespace lcaknap::fault
