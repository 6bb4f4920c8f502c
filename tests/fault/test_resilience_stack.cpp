#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/lca_kp.h"
#include "fault/chaos.h"
#include "fault/circuit_breaker.h"
#include "fault/verifying.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/retrying.h"
#include "util/virtual_clock.h"

/// The ISSUE acceptance tests for the resilience layer as a whole:
///
///  1. determinism — the same FaultPlan seed replayed over a fresh
///     VirtualClock produces the identical fault sequence, breaker
///     transitions, and outcome counts;
///  2. consistency — LCA answers served through every non-corrupting fault
///     plan equal the fault-free answers for the same LCA seed, and answers
///     served through a corrupting plan equal them too once VerifyingAccess
///     turns corruption into retries (Definition 2.3 as a runtime property).

namespace lcaknap::fault {
namespace {

FaultPlan stormy_plan(std::uint64_t seed) {
  FaultPhase steady;
  steady.label = "steady";
  steady.duration_us = 20'000;
  FaultPhase outage;
  outage.label = "outage";
  outage.duration_us = 30'000;
  outage.fail_rate = 1.0;
  FaultPhase brownout;
  brownout.label = "brownout";
  brownout.duration_us = 30'000;
  brownout.fail_rate = 0.3;
  brownout.latency_min_us = 5;
  brownout.latency_max_us = 40;
  FaultPhase recovered;
  recovered.label = "recovered";
  recovered.duration_us = 0;
  return FaultPlan({steady, outage, brownout, recovered}, seed);
}

oracle::RetryConfig resilient_retries() {
  oracle::RetryConfig config;
  config.max_attempts = 6;
  config.base_backoff_us = 50;
  config.max_backoff_us = 5'000;
  config.retry_budget_ratio = 0.5;
  config.retry_budget_initial = 32;
  return config;
}

TEST(ResilienceStack, SameFaultSeedReplaysIdentically) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 100, 1);
  // One full client stack, replayed from scratch: storage -> chaos ->
  // verifying -> retrying -> breaker, all on one virtual clock.
  const auto replay = [&inst](std::uint64_t plan_seed) {
    const oracle::MaterializedAccess storage(inst);
    util::VirtualClock clock;
    metrics::Registry registry;
    const ChaosAccess chaos(storage, stormy_plan(plan_seed), clock,
                            /*armed=*/true, registry);
    const VerifyingAccess verified(chaos, registry);
    const oracle::RetryingAccess retrying(verified, resilient_retries(), clock,
                                          registry);
    CircuitBreakerConfig breaker_config;
    breaker_config.open_cooldown_us = 5'000;  // short enough to recover in-test
    const BreakerAccess guarded(retrying, breaker_config, clock, registry);

    std::string outcomes;
    for (int i = 0; i < 2'000; ++i) {
      try {
        (void)guarded.query(static_cast<std::size_t>(i) % inst.size());
        outcomes.push_back('.');
      } catch (const CircuitOpen&) {
        outcomes.push_back('O');
      } catch (const oracle::OracleUnavailable&) {
        outcomes.push_back('X');
      }
      clock.advance_us(25);  // the pacing between client calls
    }
    const auto counters = guarded.breaker().counters();
    std::ostringstream signature;
    signature << outcomes << '|' << chaos.failstops_injected() << ','
              << chaos.latencies_injected() << ',' << chaos.corruptions_injected()
              << '|' << retrying.retries_performed() << ','
              << retrying.backoff_slept_us() << ',' << retrying.budget_exhausted()
              << '|' << counters.to_open << ',' << counters.to_half_open << ','
              << counters.to_closed << ',' << counters.rejected;
    return signature.str();
  };

  const auto first = replay(0xFA111);
  EXPECT_EQ(first, replay(0xFA111));  // bit-identical end to end
  EXPECT_NE(first, replay(0xFA112));

  // Sanity: the scripted storm actually exercised every mechanism.
  EXPECT_NE(first.find('O'), std::string::npos);  // breaker fast-fails
  EXPECT_NE(first.find('.'), std::string::npos);  // recovery serves again
}

class StackConsistencyTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kTapeSeed = 0xCAFE;

  StackConsistencyTest()
      : inst_(knapsack::make_family(knapsack::Family::kUncorrelated, 500, 9)),
        storage_(inst_) {
    config_.eps = 0.25;
    config_.seed = 0x5E;
    config_.quantile_samples = 5'000;
  }

  /// Fault-free reference: warm once, answer every item.
  std::vector<bool> baseline_answers() const {
    const core::LcaKp lca(storage_, config_);
    util::Xoshiro256 tape(util::mix64(kTapeSeed));
    const auto run = lca.run_pipeline(tape);
    std::vector<bool> answers(inst_.size());
    for (std::size_t i = 0; i < inst_.size(); ++i) {
      answers[i] = lca.answer_from(run, i);
    }
    return answers;
  }

  /// Warm through the stack with chaos disarmed (Theorem 4.1's one-time
  /// warm-up happens before the storm), arm, then answer every item,
  /// retrying at the caller when the whole stack gives up — answer_from
  /// costs one query and never touches the sampling tape, so caller-level
  /// retries cannot shift randomness.
  std::vector<bool> answers_through(ChaosAccess& chaos,
                                    const oracle::InstanceAccess& stack_top,
                                    util::VirtualClock& clock) const {
    const core::LcaKp lca(stack_top, config_);
    util::Xoshiro256 tape(util::mix64(kTapeSeed));
    const auto run = lca.run_pipeline(tape);
    chaos.arm();
    std::vector<bool> answers(inst_.size());
    for (std::size_t i = 0; i < inst_.size(); ++i) {
      // Pacing between requests: fault-free phases produce no sleeps of
      // their own, so without this the virtual timeline would stall at the
      // plan's first steady window and the storm would never arrive.
      clock.advance_us(100);
      for (;;) {
        try {
          answers[i] = lca.answer_from(run, i);
          break;
        } catch (const oracle::OracleUnavailable&) {
        }
      }
    }
    return answers;
  }

  knapsack::Instance inst_;
  oracle::MaterializedAccess storage_;
  core::LcaKpConfig config_;
};

TEST_F(StackConsistencyTest, NonCorruptingPlanPreservesLcaAnswers) {
  util::VirtualClock clock;
  metrics::Registry registry;
  ChaosAccess chaos(storage_, stormy_plan(0xBEEF), clock, /*armed=*/false,
                    registry);
  const VerifyingAccess verified(chaos, registry);
  const oracle::RetryingAccess retrying(verified, resilient_retries(), clock,
                                        registry);
  const auto answers = answers_through(chaos, retrying, clock);
  EXPECT_EQ(answers, baseline_answers());
  EXPECT_GT(chaos.failstops_injected(), 0u);  // the storm really happened
  // E16's falsifiable zero-violation prediction: with corruption rate 0,
  // the verifier must never fire.
  EXPECT_EQ(verified.corruptions_detected(), 0u);
}

TEST_F(StackConsistencyTest, VerifierHealsCorruptingPlan) {
  FaultPhase corrupting;
  corrupting.label = "corruption-window";
  corrupting.duration_us = 0;
  corrupting.corrupt_rate = 0.4;
  util::VirtualClock clock;
  metrics::Registry registry;
  ChaosAccess chaos(storage_, FaultPlan({corrupting}, 0xD00D), clock,
                    /*armed=*/false, registry);
  const VerifyingAccess verified(chaos, registry);
  const oracle::RetryingAccess retrying(verified, oracle::RetryConfig{.max_attempts = 32},
                                        util::system_clock(), registry);
  const auto answers = answers_through(chaos, retrying, clock);
  EXPECT_EQ(answers, baseline_answers());
  EXPECT_GT(chaos.corruptions_injected(), 0u);
  // Every injected corruption was caught: none slipped past the invariants
  // into an answer (equality above), and none vanished unobserved.
  EXPECT_EQ(verified.corruptions_detected(), chaos.corruptions_injected());
}

}  // namespace
}  // namespace lcaknap::fault
