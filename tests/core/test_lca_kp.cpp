#include "core/lca_kp.h"

#include <gtest/gtest.h>

#include "core/mapping_greedy.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "iky/eps.h"
#include "knapsack/generators.h"
#include "knapsack/solvers/solve.h"
#include "oracle/access.h"
#include "oracle/retrying.h"

namespace lcaknap::core {
namespace {

LcaKpConfig test_config(double eps = 0.25, std::uint64_t seed = 0xABCD) {
  LcaKpConfig config;
  config.eps = eps;
  config.seed = seed;
  config.quantile_samples = 60'000;  // test-sized budget
  return config;
}

TEST(ResolveParams, CalibratedDefaults) {
  LcaKpConfig config;
  config.eps = 0.25;
  const auto params = resolve_params(config);
  EXPECT_DOUBLE_EQ(params.tau, 0.125);
  EXPECT_DOUBLE_EQ(params.rho, 0.25 / 6.0);
  EXPECT_DOUBLE_EQ(params.beta, params.rho / 2.0);
  EXPECT_GT(params.large_samples, 0u);
  EXPECT_GE(params.quantile_samples, 4'096u);
  EXPECT_LE(params.quantile_samples, config.max_quantile_samples);
  EXPECT_EQ(params.t_max, 4);
}

TEST(ResolveParams, PaperConstants) {
  LcaKpConfig config;
  config.eps = 0.3;
  config.paper_constants = true;
  const auto params = resolve_params(config);
  EXPECT_DOUBLE_EQ(params.tau, 0.09 / 5.0);
  EXPECT_DOUBLE_EQ(params.rho, 0.09 / 18.0);
}

TEST(ResolveParams, ExplicitOverridesWin) {
  LcaKpConfig config;
  config.eps = 0.25;
  config.tau = 0.07;
  config.rho = 0.03;
  config.beta = 0.01;
  config.large_samples = 1'000;
  config.quantile_samples = 2'000;
  const auto params = resolve_params(config);
  EXPECT_DOUBLE_EQ(params.tau, 0.07);
  EXPECT_DOUBLE_EQ(params.rho, 0.03);
  EXPECT_DOUBLE_EQ(params.beta, 0.01);
  EXPECT_EQ(params.large_samples, 1'000u);
  EXPECT_EQ(params.quantile_samples, 2'000u);
}

TEST(ResolveParams, RejectsBadConfig) {
  LcaKpConfig config;
  config.eps = 0.0;
  EXPECT_THROW(resolve_params(config), std::invalid_argument);
  config.eps = 0.25;
  config.domain_bits = 2;
  EXPECT_THROW(resolve_params(config), std::invalid_argument);
}

TEST(LcaKp, PipelineFindsAllLargeItems) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 20'000, 41);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, test_config());
  util::Xoshiro256 rng(42);
  const auto run = lca.run_pipeline(rng);
  // The needle family plants heavy items carrying ~40% of the profit; the
  // coupon-collector sampling must find that mass (Lemma 4.2).
  EXPECT_GT(run.large_mass, 0.2);
  EXPECT_GT(run.samples_used, 0u);
}

TEST(LcaKp, SolutionIsFeasible) {
  // Lemma 4.7 across families and seeds: the mapped solution C never
  // exceeds the capacity.
  for (const auto family :
       {knapsack::Family::kNeedle, knapsack::Family::kUncorrelated,
        knapsack::Family::kStronglyCorrelated, knapsack::Family::kSubsetSum}) {
    const auto inst = knapsack::make_family(family, 5'000, 43);
    const oracle::MaterializedAccess access(inst);
    const LcaKp lca(access, test_config());
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      util::Xoshiro256 rng(seed);
      const auto run = lca.run_pipeline(rng);
      const SolutionEval eval = evaluate_run(inst, lca, run);
      EXPECT_TRUE(eval.feasible)
          << knapsack::family_name(family) << " seed " << seed
          << " weight " << eval.raw_weight << " cap " << inst.capacity();
    }
  }
}

TEST(LcaKp, SolutionValueMeetsLemma48) {
  // (1/2, 6 eps): p(C) >= OPT/2 - 6 eps (normalized), w.h.p.
  const double eps = 0.25;
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 10'000, 44);
  const auto exact = knapsack::solve_exact(inst);
  const double opt_norm = static_cast<double>(exact.solution.value) /
                          static_cast<double>(inst.total_profit());
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, test_config(eps));
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Xoshiro256 rng(seed * 13);
    const auto run = lca.run_pipeline(rng);
    const SolutionEval eval = evaluate_run(inst, lca, run);
    if (eval.norm_value < opt_norm / 2.0 - 6.0 * eps) ++failures;
  }
  EXPECT_EQ(failures, 0);
}

TEST(LcaKp, AnswerFromMatchesDecide) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 3'000, 45);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, test_config());
  util::Xoshiro256 rng(46);
  const auto run = lca.run_pipeline(rng);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(lca.answer_from(run, i),
              lca.decide(run, i, inst.norm_profit(i), inst.efficiency(i)));
  }
}

TEST(LcaKp, AnswerFromCostsOneQuery) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 3'000, 47);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, test_config());
  util::Xoshiro256 rng(48);
  const auto run = lca.run_pipeline(rng);
  const auto before = access.query_count();
  (void)lca.answer_from(run, 7);
  EXPECT_EQ(access.query_count(), before + 1);
}

TEST(LcaKp, MemorylessAnswerRunsFullPipeline) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 2'000, 49);
  const oracle::MaterializedAccess access(inst);
  LcaKpConfig config = test_config();
  config.quantile_samples = 8'000;
  const LcaKp lca(access, config);
  util::Xoshiro256 rng(50);
  access.reset_counters();
  (void)lca.answer(3, rng);
  // One full pipeline's worth of samples plus the single item query.
  EXPECT_GE(access.sample_count(), 8'000u);
  EXPECT_GE(access.query_count(), 1u);
}

TEST(LcaKp, QueryOrderObliviousness) {
  // Definition 2.4: answers depend only on (instance, seed, run), not on the
  // order queries arrive.  With a fixed run, permuting queries cannot change
  // answers; verify across two independent orderings.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 2'000, 51);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, test_config());
  util::Xoshiro256 rng(52);
  const auto run = lca.run_pipeline(rng);
  std::vector<bool> forward, backward(200);
  for (std::size_t i = 0; i < 200; ++i) forward.push_back(lca.answer_from(run, i));
  for (std::size_t i = 200; i-- > 0;) backward[i] = lca.answer_from(run, i);
  EXPECT_EQ(forward, std::vector<bool>(backward.begin(), backward.end()));
}

TEST(LcaKp, GarbageItemsAreNeverIncluded) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 10'000, 53);
  const double eps = 0.25;
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, test_config(eps));
  util::Xoshiro256 rng(54);
  const auto run = lca.run_pipeline(rng);
  const double eps2 = eps * eps;
  for (std::size_t i = 0; i < inst.size(); ++i) {
    const double p = inst.norm_profit(i);
    const double e = inst.efficiency(i);
    if (p <= eps2 && e < eps2) {
      EXPECT_FALSE(lca.decide(run, i, p, e)) << "garbage item " << i << " included";
    }
  }
}

TEST(LcaKp, WorksThroughRetryingFlakyOracle) {
  // Failure injection: a flaky oracle behind a retry layer must not change
  // the nature of the results (retries only consume fresh randomness).
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 3'000, 55);
  const oracle::MaterializedAccess inner(inst);
  const fault::ChaosAccess flaky(inner, fault::parse_fault_plan("flaky:0:fail=0.2", 56));
  const oracle::RetryingAccess retrying(flaky, oracle::RetryConfig{.max_attempts = 64});
  const LcaKp lca(retrying, test_config());
  util::Xoshiro256 rng(57);
  const auto run = lca.run_pipeline(rng);
  const SolutionEval eval = evaluate_run(inst, lca, run);
  EXPECT_TRUE(eval.feasible);
  EXPECT_GT(run.samples_used, 0u);
}

TEST(LcaKp, ReproducibleThresholdsFormAnEps) {
  // Lemma 4.6: conditioned on the large items being captured, the pipeline's
  // quantile sequence is an (approximate) Equally Partitioning Sequence:
  // every band of small items carries profit mass ~ eps.  The plain
  // empirical quantiles of the [IKY12] ablation must form one too: they are
  // accurate, only not reproducible.
  const double eps = 0.1;
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 30'000, 57);
  const oracle::MaterializedAccess access(inst);
  for (const bool reproducible : {true, false}) {
    SCOPED_TRACE(reproducible ? "reproducible quantiles" : "plain quantiles");
    LcaKpConfig config = test_config(eps);
    config.quantile_samples = 200'000;
    config.reproducible_quantiles = reproducible;
    const LcaKp lca(access, config);
    util::Xoshiro256 tape(58);
    const auto run = lca.run_pipeline(tape);
    ASSERT_GE(run.thresholds.size(), 3u);
    const auto validity = iky::check_eps(inst, run.thresholds, eps, /*slack=*/0.06);
    // Interior bands must carry close to eps of profit mass each; the
    // calibrated tau = eps/2 allows wider deviation than the paper's eps^2, so
    // check against a correspondingly loose but still eps-scale window.
    for (std::size_t k = 1; k + 1 < validity.band_masses.size(); ++k) {
      EXPECT_NEAR(validity.band_masses[k], eps, 0.085) << "band " << k;
    }
  }
}

TEST(LcaKp, ThresholdsAreNonIncreasing) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 10'000, 58);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, test_config());
  util::Xoshiro256 rng(59);
  const auto run = lca.run_pipeline(rng);
  for (std::size_t k = 1; k < run.thresholds_grid.size(); ++k) {
    EXPECT_LE(run.thresholds_grid[k], run.thresholds_grid[k - 1]);
  }
  ASSERT_EQ(run.thresholds.size(), run.thresholds_grid.size());
}

}  // namespace
}  // namespace lcaknap::core
