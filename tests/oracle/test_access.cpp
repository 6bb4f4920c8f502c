#include "oracle/access.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "knapsack/generators.h"
#include "util/stats.h"

namespace lcaknap::oracle {
namespace {

knapsack::Instance tiny() {
  return knapsack::Instance({{10, 2}, {30, 3}, {60, 4}}, 6);
}

TEST(MaterializedAccess, ExposesMetadataFreely) {
  const auto inst = tiny();
  const MaterializedAccess access(inst);
  EXPECT_EQ(access.size(), 3u);
  EXPECT_EQ(access.capacity(), 6);
  EXPECT_EQ(access.total_profit(), 100);
  EXPECT_EQ(access.total_weight(), 9);
  EXPECT_EQ(access.access_count(), 0u);  // metadata is not counted
}

TEST(MaterializedAccess, QueriesAreCounted) {
  const auto inst = tiny();
  const MaterializedAccess access(inst);
  EXPECT_EQ(access.query(1), inst.item(1));
  EXPECT_EQ(access.query(2), inst.item(2));
  EXPECT_EQ(access.query_count(), 2u);
  EXPECT_EQ(access.sample_count(), 0u);
  access.reset_counters();
  EXPECT_EQ(access.access_count(), 0u);
}

TEST(MaterializedAccess, SamplesAreCounted) {
  const auto inst = tiny();
  const MaterializedAccess access(inst);
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 10; ++i) (void)access.weighted_sample(rng);
  EXPECT_EQ(access.sample_count(), 10u);
}

TEST(MaterializedAccess, WeightedSamplingIsProfitProportional) {
  const auto inst = tiny();  // profits 10, 30, 60
  const MaterializedAccess access(inst);
  util::Xoshiro256 rng(2);
  std::vector<std::size_t> counts(3, 0);
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; ++i) {
    const auto draw = access.weighted_sample(rng);
    ASSERT_LT(draw.index, 3u);
    EXPECT_EQ(draw.item, inst.item(draw.index));
    ++counts[draw.index];
  }
  const std::vector<double> probs{0.1, 0.3, 0.6};
  EXPECT_LT(util::chi_square(counts, probs), 13.8);  // df=2, 99.9th pct
}

TEST(MaterializedAccess, NormalizedHelpers) {
  const auto inst = tiny();
  const MaterializedAccess access(inst);
  const auto item = access.query(2);
  EXPECT_DOUBLE_EQ(access.norm_profit(item), 0.6);
  EXPECT_DOUBLE_EQ(access.norm_weight(item), 4.0 / 9.0);
  EXPECT_DOUBLE_EQ(access.efficiency(item), 0.6 / (4.0 / 9.0));
  EXPECT_DOUBLE_EQ(access.norm_capacity(), 6.0 / 9.0);
}

TEST(MaterializedAccess, EfficiencyOfZeroWeightIsInfinite) {
  const knapsack::Instance inst({{5, 0}, {5, 1}}, 2);
  const MaterializedAccess access(inst);
  EXPECT_TRUE(std::isinf(access.efficiency(access.query(0))));
}

TEST(MaterializedAccess, SharedTableDrawsLikeAFreshOne) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 1'000, 5);
  const MaterializedAccess owner(inst);
  // Same profits, other weights: the table a rebuild would produce.
  std::vector<knapsack::Instance::ItemWrite> writes;
  for (std::size_t i = 0; i < inst.size(); i += 7) {
    writes.push_back({i, {inst.item(i).profit, inst.item((i + 1) % inst.size()).weight}});
  }
  const knapsack::Instance reweighted = inst.with_changes(writes, {});
  const MaterializedAccess shared(reweighted, owner);
  const MaterializedAccess fresh(reweighted);
  util::Xoshiro256 shared_rng(17);
  util::Xoshiro256 fresh_rng(17);
  for (int k = 0; k < 10'000; ++k) {
    const auto a = shared.weighted_sample(shared_rng);
    const auto b = fresh.weighted_sample(fresh_rng);
    ASSERT_EQ(a.index, b.index) << "draw " << k;
    ASSERT_EQ(a.item, b.item) << "draw " << k;
  }
  EXPECT_EQ(shared.sample_count(), 10'000u);
  EXPECT_EQ(owner.sample_count(), 0u);

  const std::vector<knapsack::Item> extra{{5, 5}};
  const knapsack::Instance grown = inst.with_changes({}, extra);
  EXPECT_THROW(MaterializedAccess(grown, owner), std::invalid_argument);
}

TEST(MaterializedAccess, CountersAreThreadSafe) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 100, 3);
  const MaterializedAccess access(inst);
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&access, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        (void)access.query(static_cast<std::size_t>(rng.next_below(100)));
        (void)access.weighted_sample(rng);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(access.query_count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(access.sample_count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace lcaknap::oracle
