#include "dyn/delta.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "oracle/access.h"
#include "util/rng.h"

namespace lcaknap::dyn {
namespace {

constexpr std::uint64_t kTapeSeed = 11;

core::LcaKpConfig test_config() {
  core::LcaKpConfig config;
  config.eps = 0.25;
  config.seed = 0xD17A;
  config.large_samples = 2'000;
  config.quantile_samples = 8'192;
  return config;
}

knapsack::Instance base_instance(std::size_t n = 2'000) {
  return knapsack::make_family(knapsack::Family::kUncorrelated, n, 97);
}

UpdateBatch batch_of(std::uint64_t epoch_id) {
  UpdateBatch batch;
  batch.epoch_id = epoch_id;
  return batch;
}

/// A weight-only batch over distinct indices, weights drawn in
/// [1, capacity] so the mutated instance always validates.
UpdateBatch weight_batch(std::uint64_t epoch_id,
                         const knapsack::Instance& inst, std::size_t count,
                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  UpdateBatch batch;
  batch.epoch_id = epoch_id;
  std::vector<bool> used(inst.size(), false);
  while (batch.mutations.size() < count) {
    const auto index = static_cast<std::size_t>(rng.next_below(inst.size()));
    if (used[index]) continue;
    used[index] = true;
    const auto weight = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(inst.capacity())) + 1);
    batch.mutations.push_back(
        {MutationKind::kWeightUpdate, index, 0, weight});
  }
  return batch;
}

// --- plan_delta: the soundness rule, one verdict per mutation kind ---------

TEST(PlanDelta, EmptyBatchIsEligible) {
  const auto base = base_instance(100);
  const auto plan = plan_delta(base, batch_of(1));
  EXPECT_TRUE(plan.delta_eligible);
  EXPECT_EQ(plan.reason, "empty-batch");
}

TEST(PlanDelta, WeightOnlyBatchIsEligible) {
  const auto base = base_instance(100);
  const auto plan = plan_delta(base, weight_batch(1, base, 10, 5));
  EXPECT_TRUE(plan.delta_eligible);
  EXPECT_EQ(plan.reason, "weight-only");
}

TEST(PlanDelta, InsertFallsBack) {
  const auto base = base_instance(100);
  UpdateBatch batch = batch_of(1);
  batch.mutations.push_back({MutationKind::kInsert, 0, 50, 3});
  const auto plan = plan_delta(base, batch);
  EXPECT_FALSE(plan.delta_eligible);
  EXPECT_EQ(plan.reason, "insert changes n and the profit vector");
}

TEST(PlanDelta, DeleteFallsBack) {
  const auto base = base_instance(100);
  UpdateBatch batch = batch_of(1);
  batch.mutations.push_back({MutationKind::kDelete, 7, 0, 0});
  const auto plan = plan_delta(base, batch);
  EXPECT_FALSE(plan.delta_eligible);
  EXPECT_EQ(plan.reason, "delete tombstones a profit");
}

TEST(PlanDelta, ProfitChangeFallsBack) {
  const auto base = base_instance(100);
  UpdateBatch batch = batch_of(1);
  batch.mutations.push_back(
      {MutationKind::kProfitUpdate, 7, base.item(7).profit + 1, 0});
  const auto plan = plan_delta(base, batch);
  EXPECT_FALSE(plan.delta_eligible);
  EXPECT_EQ(plan.reason, "profit update re-weights the sampling distribution");
}

TEST(PlanDelta, ValueIdenticalProfitWriteIsEligible) {
  const auto base = base_instance(100);
  UpdateBatch batch = batch_of(1);
  batch.mutations.push_back(
      {MutationKind::kProfitUpdate, 7, base.item(7).profit, 0});
  batch.mutations.push_back({MutationKind::kWeightUpdate, 9, 0, 4});
  const auto plan = plan_delta(base, batch);
  EXPECT_TRUE(plan.delta_eligible);
  EXPECT_EQ(plan.reason, "weight-only");
}

TEST(PlanDelta, OutOfRangeIndexIsIneligibleNotAThrow) {
  const auto base = base_instance(100);
  UpdateBatch batch = batch_of(1);
  batch.mutations.push_back({MutationKind::kWeightUpdate, 999, 0, 4});
  EXPECT_FALSE(plan_delta(base, batch).delta_eligible);
  batch.mutations = {{MutationKind::kProfitUpdate, 999, 1, 0}};
  EXPECT_FALSE(plan_delta(base, batch).delta_eligible);
}

// --- replay_delta: the differential digest suite ---------------------------

/// The Lemma 4.9 contract extended across an epoch: for every
/// plan_delta-eligible batch, the replayed run must be run_digest-equal to a
/// fresh full warm-up of the mutated instance.
TEST(ReplayDelta, WeightOnlyBatchesAreDigestEqualToFreshWarmups) {
  const auto base = base_instance();
  const oracle::MaterializedAccess access(base);
  const core::LcaKp lca(access, test_config());
  core::WarmupTrace trace;
  (void)lca.run_warmup(kTapeSeed, 0, &trace);
  EXPECT_EQ(trace.tape_seed, kTapeSeed);

  for (const std::size_t churn : {1u, 20u, 200u}) {
    const auto batch = weight_batch(1, base, churn, 1'000 + churn);
    ASSERT_TRUE(plan_delta(base, batch).delta_eligible);
    const auto mutated = apply_batch(base, batch);
    const oracle::MaterializedAccess mutated_access(mutated);
    const core::LcaKp mutated_lca(mutated_access, test_config());

    const auto delta = replay_delta(mutated_lca, trace);
    const auto fresh = mutated_lca.run_warmup(kTapeSeed, 0);
    EXPECT_EQ(core::run_digest(delta), core::run_digest(fresh))
        << "digest mismatch at churn " << churn;
  }
}

TEST(ReplayDelta, ChainedDeltasReplayFromTheOriginalTrace) {
  const auto base = base_instance();
  const oracle::MaterializedAccess access(base);
  const core::LcaKp lca(access, test_config());
  core::WarmupTrace trace;
  (void)lca.run_warmup(kTapeSeed, 0, &trace);

  // Profits never change along a delta chain, so the epoch-0 trace stays
  // valid against every later instance in the chain.
  knapsack::Instance current = base;
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    const auto batch = weight_batch(epoch, current, 50, 7'000 + epoch);
    current = apply_batch(current, batch);
    const oracle::MaterializedAccess chained_access(current);
    const core::LcaKp chained_lca(chained_access, test_config());
    const auto delta = replay_delta(chained_lca, trace);
    const auto fresh = chained_lca.run_warmup(kTapeSeed, 0);
    EXPECT_EQ(core::run_digest(delta), core::run_digest(fresh))
        << "digest mismatch at epoch " << epoch;
  }
}

TEST(ReplayDelta, EmptyBatchReplaysTheIdenticalRun) {
  const auto base = base_instance(500);
  const oracle::MaterializedAccess access(base);
  const core::LcaKp lca(access, test_config());
  core::WarmupTrace trace;
  const auto original = lca.run_warmup(kTapeSeed, 0, &trace);
  const auto replayed = replay_delta(lca, trace);
  EXPECT_EQ(core::run_digest(replayed), core::run_digest(original));
}

TEST(ReplayDelta, ThrowsWhenATracedLargeIndexStopsClassifyingLarge) {
  // One heavy item dominates the profit mass, so the step-1 sweep is all but
  // guaranteed to record it as large.
  std::vector<knapsack::Item> items(50, {10, 2});
  items[0] = {1'000, 2};
  const knapsack::Instance base(std::move(items), /*capacity=*/20);
  const oracle::MaterializedAccess access(base);
  const core::LcaKp lca(access, test_config());
  core::WarmupTrace trace;
  (void)lca.run_warmup(kTapeSeed, 0, &trace);
  ASSERT_FALSE(trace.large_drawn.empty());

  // Repricing the heavy item (an ineligible batch — this calls the replay
  // directly to exercise its defensive invariant) drops its normalized
  // profit below eps^2: the traced-large set no longer replays.
  UpdateBatch batch = batch_of(1);
  batch.mutations.push_back({MutationKind::kProfitUpdate, 0, 10, 0});
  const auto mutated = apply_batch(base, batch);
  const oracle::MaterializedAccess mutated_access(mutated);
  const core::LcaKp mutated_lca(mutated_access, test_config());
  EXPECT_THROW((void)replay_delta(mutated_lca, trace), std::runtime_error);
}

TEST(ReplayDelta, ThrowsWhenTheSmallMassGateFlips) {
  const auto base = base_instance(500);
  const oracle::MaterializedAccess access(base);
  const core::LcaKp lca(access, test_config());
  core::WarmupTrace trace;
  (void)lca.run_warmup(kTapeSeed, 0, &trace);
  // A tampered trace claiming the opposite gate outcome must be refused —
  // the gate is a pure function of large_mass, which the replay recomputes.
  core::WarmupTrace tampered = trace;
  tampered.quantile_swept = !tampered.quantile_swept;
  EXPECT_THROW((void)replay_delta(lca, tampered), std::runtime_error);
}

}  // namespace
}  // namespace lcaknap::dyn
