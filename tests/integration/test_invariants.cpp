// Cross-module invariants swept over families and seeds: conservation laws
// connecting the oracle accounting, the pipeline, the decision rule, and the
// offline solvers.

#include <gtest/gtest.h>

#include "core/lca_kp.h"
#include "core/mapping_greedy.h"
#include "knapsack/generators.h"
#include "knapsack/solvers/greedy.h"
#include "knapsack/solvers/solve.h"
#include "oracle/access.h"

namespace lcaknap {
namespace {

core::LcaKpConfig small_config(double eps = 0.1) {
  core::LcaKpConfig config;
  config.eps = eps;
  config.seed = 0x1417;
  config.quantile_samples = 30'000;
  return config;
}

TEST(Invariants, PipelineSampleAccountingIsExact) {
  // When the EPS branch runs, samples_used == large budget + quantile budget
  // (the line-7 filter discards items but the draws are already spent).
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 5'000, 53);
  const oracle::MaterializedAccess access(inst);
  const auto config = small_config();
  const core::LcaKp lca(access, config);
  util::Xoshiro256 tape(54);
  const auto run = lca.run_pipeline(tape);
  ASSERT_GT(run.t, 0);  // EPS branch taken on this family at eps = 0.1
  EXPECT_EQ(run.samples_used,
            lca.params().large_samples + lca.params().quantile_samples);
}

TEST(Invariants, LargeDominatedInstanceSkipsTheEpsBranch) {
  // One item holds ~95% of the profit: 1 - p(L) < eps, so Algorithm 2's
  // line-4 guard skips quantile sampling entirely.
  std::vector<knapsack::Item> items{{9'500, 10}};
  for (int f = 0; f < 100; ++f) items.push_back({5, 1});
  const knapsack::Instance inst(std::move(items), 200);
  const oracle::MaterializedAccess access(inst);
  const auto config = small_config(0.2);
  const core::LcaKp lca(access, config);
  util::Xoshiro256 tape(55);
  const auto run = lca.run_pipeline(tape);
  EXPECT_EQ(run.t, 0);
  EXPECT_TRUE(run.thresholds_grid.empty());
  EXPECT_EQ(run.samples_used, lca.params().large_samples);
  // The giant must be served.
  EXPECT_TRUE(lca.decide(run, 0, inst.norm_profit(0), inst.efficiency(0)));
}

TEST(Invariants, ESmallIsAlwaysOneOfTheEpsThresholds) {
  for (std::uint64_t seed = 60; seed < 66; ++seed) {
    const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 8'000, seed);
    const oracle::MaterializedAccess access(inst);
    const core::LcaKp lca(access, small_config());
    util::Xoshiro256 tape(seed * 3);
    const auto run = lca.run_pipeline(tape);
    if (run.e_small_grid < 0) continue;
    EXPECT_NE(std::find(run.thresholds_grid.begin(), run.thresholds_grid.end(),
                        run.e_small_grid),
              run.thresholds_grid.end());
  }
}

TEST(Invariants, MappingGreedyEqualsPerItemAnswers) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 3'000, 67);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config());
  util::Xoshiro256 tape(68);
  const auto run = lca.run_pipeline(tape);
  const auto selection = core::mapping_greedy(inst, lca, run);
  std::vector<bool> in_solution(inst.size(), false);
  for (const auto i : selection) in_solution[i] = true;
  for (std::size_t i = 0; i < inst.size(); ++i) {
    ASSERT_EQ(lca.answer_from(run, i), in_solution[i]) << "item " << i;
  }
}

TEST(Invariants, SolverSandwichAcrossFamilies) {
  // greedy_half <= exact <= fractional, exactly, on every family.
  for (const auto family : knapsack::all_families()) {
    const auto inst = knapsack::make_family(family, 120, 69);
    const auto greedy = knapsack::greedy_half(inst).solution.value;
    const auto exact = knapsack::solve_exact(inst).solution.value;
    const double frac = knapsack::fractional_opt(inst);
    EXPECT_LE(greedy, exact) << knapsack::family_name(family);
    EXPECT_LE(static_cast<double>(exact), frac + 1e-6)
        << knapsack::family_name(family);
    EXPECT_GE(2 * greedy, exact) << knapsack::family_name(family);
  }
}

TEST(Invariants, NormalizedProfileSumsToOne) {
  for (const auto family : knapsack::all_families()) {
    const auto inst = knapsack::make_family(family, 500, 70);
    double profit_sum = 0.0, weight_sum = 0.0;
    for (std::size_t i = 0; i < inst.size(); ++i) {
      profit_sum += inst.norm_profit(i);
      weight_sum += inst.norm_weight(i);
    }
    EXPECT_NEAR(profit_sum, 1.0, 1e-9) << knapsack::family_name(family);
    EXPECT_NEAR(weight_sum, 1.0, 1e-9) << knapsack::family_name(family);
  }
}

TEST(Invariants, DecisionRuleNeverAdmitsUnknownLargeItems) {
  // A large item not captured by sampling must be answered "no" (the rule
  // only knows Index_large); this is what makes missed large items a
  // *consistency* failure rather than a feasibility one.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 5'000, 71);
  const oracle::MaterializedAccess access(inst);
  auto config = small_config();
  config.large_samples = 1;  // starve the coupon collector
  const core::LcaKp lca(access, config);
  util::Xoshiro256 tape(72);
  const auto run = lca.run_pipeline(tape);
  const double eps2 = config.eps * config.eps;
  for (std::size_t i = 0; i < inst.size(); ++i) {
    if (inst.norm_profit(i) > eps2 && !run.index_large.contains(i)) {
      EXPECT_FALSE(lca.decide(run, i, inst.norm_profit(i), inst.efficiency(i)));
    }
  }
}

TEST(Invariants, AnswerSingleEqualsPipelinePlusAnswerFrom) {
  // The memoryless answer() is literally pipeline + answer_from with the
  // same tape state.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 2'000, 73);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config());
  util::Xoshiro256 tape_a(74), tape_b(74);
  const bool direct = lca.answer(42, tape_a);
  const auto run = lca.run_pipeline(tape_b);
  EXPECT_EQ(direct, lca.answer_from(run, 42));
}

}  // namespace
}  // namespace lcaknap
