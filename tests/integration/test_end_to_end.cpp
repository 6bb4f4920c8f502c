#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/consistency.h"
#include "core/full_read_lca.h"
#include "core/lca_kp.h"
#include "core/mapping_greedy.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "iky/value_approx.h"
#include "knapsack/generators.h"
#include "knapsack/solvers/solve.h"
#include "oracle/access.h"
#include "oracle/retrying.h"
#include "util/thread_pool.h"

namespace lcaknap {
namespace {

core::LcaKpConfig serving_config() {
  core::LcaKpConfig config;
  config.eps = 0.25;
  config.seed = 0xFEED5EED;
  config.quantile_samples = 50'000;
  return config;
}

TEST(EndToEnd, DistributedServingScenario) {
  // The PODC story: N replica threads, one shared seed, a common query
  // stream; every replica is a fully independent LCA run.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 20'000, 71);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, serving_config());

  constexpr std::size_t kReplicas = 6;
  std::vector<core::LcaKpRun> runs(kReplicas);
  util::ThreadPool pool(kReplicas);
  pool.parallel_for(kReplicas, [&](std::size_t r) {
    util::Xoshiro256 tape(1000 + r);
    runs[r] = lca.run_pipeline(tape);
  });

  // Every replica's solution is feasible and carries comparable value.
  double min_value = 1.0, max_value = 0.0;
  for (const auto& run : runs) {
    const auto eval = core::evaluate_run(inst, lca, run);
    ASSERT_TRUE(eval.feasible);
    min_value = std::min(min_value, eval.norm_value);
    max_value = std::max(max_value, eval.norm_value);
  }
  EXPECT_LT(max_value - min_value, 0.2);

  // A common query stream answered by round-robin replicas is dominated by
  // agreement: count disagreements against replica 0.
  std::size_t disagreements = 0;
  constexpr std::size_t kQueries = 500;
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    const std::size_t item = (qi * 37) % inst.size();
    const bool reference =
        lca.decide(runs[0], item, inst.norm_profit(item), inst.efficiency(item));
    const auto& run = runs[qi % kReplicas];
    if (lca.decide(run, item, inst.norm_profit(item), inst.efficiency(item)) !=
        reference) {
      ++disagreements;
    }
  }
  EXPECT_LT(static_cast<double>(disagreements) / kQueries, 0.25);
}

TEST(EndToEnd, LcaBeatsFullReadOnQueryCost) {
  // E4's headline in miniature: per-answer cost of LCA-KP is flat in n while
  // the full-read baseline pays n.
  const auto small = knapsack::make_family(knapsack::Family::kNeedle, 2'000, 72);
  const auto large = knapsack::make_family(knapsack::Family::kNeedle, 50'000, 72);

  auto lca_cost = [&](const knapsack::Instance& inst) {
    const oracle::MaterializedAccess access(inst);
    core::LcaKpConfig config = serving_config();
    config.quantile_samples = 20'000;
    const core::LcaKp lca(access, config);
    util::Xoshiro256 rng(73);
    access.reset_counters();
    (void)lca.answer(0, rng);
    return access.access_count();
  };
  auto full_cost = [&](const knapsack::Instance& inst) {
    const oracle::MaterializedAccess access(inst);
    const core::FullReadLca lca(access);
    util::Xoshiro256 rng(74);
    access.reset_counters();
    (void)lca.answer(0, rng);
    return access.access_count();
  };

  EXPECT_EQ(lca_cost(small), lca_cost(large));       // flat in n
  EXPECT_EQ(full_cost(large), 50'000u + 0u);         // linear in n
  EXPECT_LT(lca_cost(large), full_cost(large));      // crossover long passed
}

TEST(EndToEnd, ValueEstimateConsistentWithServedSolution) {
  // [IKY12] value estimation and LCA-KP's served solution describe the same
  // instance: the served value must be within the combined error bands.
  const double eps = 0.25;
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 10'000, 75);
  const oracle::MaterializedAccess access(inst);

  iky::ValueApproxConfig vconfig;
  vconfig.eps = eps;
  util::Xoshiro256 vrng(76);
  const auto value_estimate = iky::approximate_opt_value(access, vconfig, vrng);

  const core::LcaKp lca(access, serving_config());
  util::Xoshiro256 srng(77);
  const auto run = lca.run_pipeline(srng);
  const auto eval = core::evaluate_run(inst, lca, run);

  // served >= estimate/2 - O(eps): both relate to OPT within 6 eps.
  EXPECT_GE(eval.norm_value, value_estimate.estimate / 2.0 - 6.0 * eps - 0.05);
}

TEST(EndToEnd, FlakyDistributedOracleWithRetries) {
  // Full path through the failure-injection stack: flaky remote oracle,
  // client retries, consistent serving on top.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 5'000, 78);
  const oracle::MaterializedAccess inner(inst);
  const fault::ChaosAccess flaky(inner, fault::parse_fault_plan("flaky:0:fail=0.15", 79));
  const oracle::RetryingAccess retrying(flaky, oracle::RetryConfig{.max_attempts = 64});

  const core::LcaKp lca(retrying, serving_config());
  util::Xoshiro256 a(80), b(81);
  const auto run1 = lca.run_pipeline(a);
  const auto run2 = lca.run_pipeline(b);
  EXPECT_TRUE(core::evaluate_run(inst, lca, run1).feasible);
  EXPECT_TRUE(core::evaluate_run(inst, lca, run2).feasible);
  EXPECT_GT(retrying.retries_performed(), 0u);

  std::size_t agree = 0;
  constexpr std::size_t kQueries = 300;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const std::size_t item = (i * 13) % inst.size();
    const bool x =
        lca.decide(run1, item, inst.norm_profit(item), inst.efficiency(item));
    const bool y =
        lca.decide(run2, item, inst.norm_profit(item), inst.efficiency(item));
    if (x == y) ++agree;
  }
  EXPECT_GE(static_cast<double>(agree) / kQueries, 0.75);
}

TEST(EndToEnd, SavedInstanceServesIdentically) {
  // Persistence round trip: an instance saved and reloaded elsewhere serves
  // the same solution under the same seed and tape.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 3'000, 82);
  std::stringstream ss;
  inst.save(ss);
  const auto reloaded = knapsack::Instance::load(ss);

  const oracle::MaterializedAccess access1(inst);
  const oracle::MaterializedAccess access2(reloaded);
  const core::LcaKp lca1(access1, serving_config());
  const core::LcaKp lca2(access2, serving_config());
  util::Xoshiro256 tape1(83), tape2(83);
  const auto run1 = lca1.run_pipeline(tape1);
  const auto run2 = lca2.run_pipeline(tape2);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(lca1.decide(run1, i, inst.norm_profit(i), inst.efficiency(i)),
              lca2.decide(run2, i, reloaded.norm_profit(i), reloaded.efficiency(i)));
  }
}

}  // namespace
}  // namespace lcaknap
