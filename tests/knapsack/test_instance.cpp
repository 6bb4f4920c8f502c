#include "knapsack/instance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace lcaknap::knapsack {
namespace {

Instance small() {
  return Instance({{10, 5}, {20, 4}, {30, 6}}, 10);
}

TEST(Instance, ValidatesInput) {
  EXPECT_THROW(Instance({}, 5), std::invalid_argument);
  EXPECT_THROW(Instance({{1, 1}}, -1), std::invalid_argument);
  EXPECT_THROW(Instance({{-1, 1}}, 5), std::invalid_argument);
  EXPECT_THROW(Instance({{1, -1}}, 5), std::invalid_argument);
  EXPECT_THROW(Instance({{0, 1}}, 5), std::invalid_argument);        // zero total profit
  EXPECT_THROW(Instance({{1, 10}}, 5), std::invalid_argument);       // w > K
}

TEST(Instance, Totals) {
  const Instance inst = small();
  EXPECT_EQ(inst.size(), 3u);
  EXPECT_EQ(inst.total_profit(), 60);
  EXPECT_EQ(inst.total_weight(), 15);
  EXPECT_EQ(inst.capacity(), 10);
}

TEST(Instance, NormalizedViews) {
  const Instance inst = small();
  EXPECT_DOUBLE_EQ(inst.norm_profit(0), 10.0 / 60.0);
  EXPECT_DOUBLE_EQ(inst.norm_weight(1), 4.0 / 15.0);
  EXPECT_DOUBLE_EQ(inst.norm_capacity(), 10.0 / 15.0);
  // Efficiency is the ratio of normalized profit to normalized weight.
  EXPECT_DOUBLE_EQ(inst.efficiency(2), (30.0 / 60.0) / (6.0 / 15.0));
}

TEST(Instance, ZeroWeightItemHasInfiniteEfficiency) {
  const Instance inst({{1, 0}, {1, 1}}, 1);
  EXPECT_TRUE(std::isinf(inst.efficiency(0)));
}

TEST(Instance, AllZeroWeightsNormalizeSafely) {
  const Instance inst({{1, 0}, {2, 0}}, 3);
  EXPECT_GT(inst.total_weight(), 0);
  EXPECT_TRUE(std::isfinite(inst.norm_capacity()));
}

TEST(Instance, WithChangesKeepsTheAllZeroWeightRuleExact) {
  // The raw weight sum is kept beside the reported total, so zeroing the
  // last weight reports 1 and restoring a weight reports the weight again.
  const Instance inst({{1, 0}, {2, 5}}, 5);
  const std::vector<Instance::ItemWrite> zero{{1, {2, 0}}};
  const Instance all_zero = inst.with_changes(zero, {});
  EXPECT_EQ(all_zero.total_weight(), 1);
  const std::vector<Instance::ItemWrite> three{{0, {1, 3}}};
  const Instance restored = all_zero.with_changes(three, {});
  EXPECT_EQ(restored.total_weight(), 3);
  EXPECT_EQ(restored.total_profit(), 3);
  EXPECT_EQ(inst.total_weight(), 5);
}

TEST(Instance, WithChangesRejectsWithoutTouchingTheOriginal) {
  const Instance inst = small();
  const std::vector<Instance::ItemWrite> past_end{{3, {1, 1}}};
  EXPECT_THROW((void)inst.with_changes(past_end, {}), std::out_of_range);
  // The first write clones and edits a chunk before the second one throws.
  const std::vector<Instance::ItemWrite> too_heavy{{0, {11, 1}}, {1, {20, 11}}};
  EXPECT_THROW((void)inst.with_changes(too_heavy, {}), std::invalid_argument);
  const std::vector<Item> negative{{-1, 1}};
  EXPECT_THROW((void)inst.with_changes({}, negative), std::invalid_argument);
  const std::vector<Instance::ItemWrite> no_profit{{0, {0, 5}}, {1, {0, 4}}, {2, {0, 6}}};
  EXPECT_THROW((void)inst.with_changes(no_profit, {}), std::invalid_argument);
  EXPECT_EQ(inst.item(0), (Item{10, 5}));
  EXPECT_EQ(inst.item(1), (Item{20, 4}));
  EXPECT_EQ(inst.total_profit(), 60);
  EXPECT_THROW((void)inst.item(3), std::out_of_range);
}

TEST(Instance, SelectionHelpers) {
  const Instance inst = small();
  const std::vector<std::size_t> sel{0, 2};
  EXPECT_EQ(inst.value_of(sel), 40);
  EXPECT_EQ(inst.weight_of(sel), 11);
  EXPECT_FALSE(inst.feasible(sel));
  const std::vector<std::size_t> ok{1, 2};
  EXPECT_TRUE(inst.feasible(ok));
  const Solution s = inst.make_solution({1, 2});
  EXPECT_EQ(s.value, 50);
  EXPECT_EQ(s.weight, 10);
}

TEST(Instance, MaximalityCheck) {
  const Instance inst = small();          // K = 10, weights 5, 4, 6
  EXPECT_TRUE(inst.is_maximal(std::vector<std::size_t>{1, 2}));   // slack 0
  EXPECT_TRUE(inst.is_maximal(std::vector<std::size_t>{0, 1}));   // slack 1 < min w
  EXPECT_FALSE(inst.is_maximal(std::vector<std::size_t>{1}));     // can add 0 or 2
  EXPECT_FALSE(inst.is_maximal(std::vector<std::size_t>{0, 1, 2}));  // infeasible
}

TEST(Instance, SaveLoadRoundTrip) {
  const Instance inst = small();
  std::stringstream ss;
  inst.save(ss);
  const Instance loaded = Instance::load(ss);
  ASSERT_EQ(loaded.size(), inst.size());
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(loaded.item(i), inst.item(i));
  }
  EXPECT_EQ(loaded.capacity(), inst.capacity());
}

TEST(Instance, LoadRejectsGarbage) {
  std::stringstream bad("not numbers");
  EXPECT_THROW(Instance::load(bad), std::runtime_error);
  std::stringstream truncated("3 10\n1 1\n");
  EXPECT_THROW(Instance::load(truncated), std::runtime_error);
}

}  // namespace
}  // namespace lcaknap::knapsack
