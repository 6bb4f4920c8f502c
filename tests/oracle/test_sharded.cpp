#include "oracle/sharded.h"

#include <gtest/gtest.h>

#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "oracle/retrying.h"
#include "util/stats.h"

namespace lcaknap::oracle {
namespace {

TEST(ShardedAccess, ValidatesShardCount) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 10, 1);
  EXPECT_THROW(ShardedAccess(inst, 0), std::invalid_argument);
  EXPECT_THROW(ShardedAccess(inst, 11), std::invalid_argument);
  EXPECT_NO_THROW(ShardedAccess(inst, 10));
}

TEST(ShardedAccess, QueriesRouteToTheRightItems) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 97, 2);
  const ShardedAccess access(inst, 7);  // uneven split: 97 = 7*13 + 6
  for (std::size_t i = 0; i < inst.size(); i += 5) {
    EXPECT_EQ(access.query(i), inst.item(i));
  }
  EXPECT_THROW((void)access.query(97), std::out_of_range);
}

TEST(ShardedAccess, SamplingStaysProfitProportional) {
  // The two-level scheme must compose to the flat distribution.
  const knapsack::Instance inst({{10, 1}, {20, 1}, {30, 1}, {15, 1}, {25, 1}}, 5);
  const ShardedAccess access(inst, 2);
  util::Xoshiro256 rng(3);
  std::vector<std::size_t> counts(5, 0);
  constexpr int kTrials = 200'000;
  for (int i = 0; i < kTrials; ++i) {
    const auto draw = access.weighted_sample(rng);
    EXPECT_EQ(draw.item, inst.item(draw.index));
    ++counts[draw.index];
  }
  const std::vector<double> probs{0.1, 0.2, 0.3, 0.15, 0.25};
  EXPECT_LT(util::chi_square(counts, probs), 18.5);  // df=4, 99.9th pct
}

TEST(ShardedAccess, LoadCountersSumToGlobalCounters) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 1'000, 4);
  const ShardedAccess access(inst, 8);
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 5'000; ++i) (void)access.weighted_sample(rng);
  for (std::size_t i = 0; i < 500; ++i) (void)access.query(i);
  std::uint64_t shard_total = 0;
  for (std::size_t s = 0; s < access.shard_count(); ++s) {
    shard_total += access.shard_load(s);
  }
  EXPECT_EQ(shard_total, access.access_count());
  EXPECT_EQ(access.sample_count(), 5'000u);
  EXPECT_EQ(access.query_count(), 500u);
}

TEST(ShardedAccess, HeavyShardCarriesTheLoad) {
  // Put all profit in the last shard: sampling load concentrates there.
  std::vector<knapsack::Item> items(100, knapsack::Item{1, 1});
  for (std::size_t i = 90; i < 100; ++i) items[i].profit = 10'000;
  const knapsack::Instance inst(std::move(items), 100);
  const ShardedAccess access(inst, 10);
  util::Xoshiro256 rng(6);
  for (int i = 0; i < 10'000; ++i) (void)access.weighted_sample(rng);
  EXPECT_GT(access.shard_load(9), 9'800u);
}

TEST(ShardedAccess, ComposesWithFailureInjection) {
  // A flaky layer over a sharded cluster, with retries on top: the full
  // distributed stack end to end.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 500, 8);
  const ShardedAccess cluster(inst, 4);
  const fault::ChaosAccess flaky(cluster, fault::parse_fault_plan("flaky:0:fail=0.3", 9));
  const RetryingAccess client(flaky, RetryConfig{.max_attempts = 32});
  util::Xoshiro256 rng(10);
  for (int i = 0; i < 2'000; ++i) {
    const auto draw = client.weighted_sample(rng);
    EXPECT_EQ(draw.item, inst.item(draw.index));
  }
  EXPECT_GT(client.retries_performed(), 0u);
  std::uint64_t shard_total = 0;
  for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
    shard_total += cluster.shard_load(s);
  }
  // Every successful draw reached exactly one shard.
  EXPECT_EQ(shard_total, cluster.sample_count());
}

TEST(ShardedAccess, WorksAsLcaBackend) {
  // Smoke: the sharded oracle is a drop-in InstanceAccess.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 2'000, 7);
  const ShardedAccess sharded(inst, 4);
  EXPECT_EQ(sharded.total_profit(), inst.total_profit());
  EXPECT_EQ(sharded.norm_capacity(),
            static_cast<double>(inst.capacity()) /
                static_cast<double>(inst.total_weight()));
}

}  // namespace
}  // namespace lcaknap::oracle
