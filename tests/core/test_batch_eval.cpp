#include "core/batch_eval.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "knapsack/generators.h"
#include "oracle/access.h"
#include "util/rng.h"

/// \file test_batch_eval.cpp
/// The batch answer path against its one correctness criterion: every lane —
/// answer AND witness fields — equal to the per-request
/// `LcaKp::answer_with_witness`.  Classify calls `LcaKp::witness_from`, the
/// function `answer_with_witness` runs after its oracle read, so this pins
/// the gather columns and the lane bookkeeping around it.  Plus per-lane
/// fault isolation and scratch reuse.

namespace lcaknap::core {
namespace {

LcaKpConfig test_config(double eps = 0.25) {
  LcaKpConfig config;
  config.eps = eps;
  config.seed = 0xABCD;
  config.quantile_samples = 30'000;
  return config;
}

/// Access decorator that throws OracleUnavailable for a chosen item set;
/// everything else forwards.  Models a partially dead input service so the
/// batch path's per-lane isolation is testable deterministically.
class FailingAccess final : public oracle::InstanceAccess {
 public:
  explicit FailingAccess(const oracle::InstanceAccess& inner)
      : inner_(&inner) {}

  std::unordered_set<std::size_t> fail_items;

  [[nodiscard]] std::size_t size() const noexcept override {
    return inner_->size();
  }
  [[nodiscard]] std::int64_t capacity() const noexcept override {
    return inner_->capacity();
  }
  [[nodiscard]] std::int64_t total_profit() const noexcept override {
    return inner_->total_profit();
  }
  [[nodiscard]] std::int64_t total_weight() const noexcept override {
    return inner_->total_weight();
  }

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override {
    if (fail_items.contains(i)) throw oracle::OracleUnavailable();
    return inner_->query(i);
  }
  [[nodiscard]] oracle::WeightedDraw do_sample(
      util::Xoshiro256& rng) const override {
    return inner_->weighted_sample(rng);
  }

 private:
  const oracle::InstanceAccess* inner_;
};

/// Asserts every lane of `scratch` equals the per-request reference.
void expect_matches_reference(const LcaKp& lca, const LcaKpRun& run,
                              const std::vector<std::size_t>& items,
                              const BatchScratch& scratch) {
  ASSERT_EQ(scratch.size, items.size());
  for (std::size_t l = 0; l < items.size(); ++l) {
    LcaKp::AnswerWitness witness;
    const bool answer = lca.answer_with_witness(run, items[l], witness);
    ASSERT_EQ(scratch.status[l], LaneStatus::kOk) << "lane " << l;
    ASSERT_EQ(scratch.answers[l] != 0, answer)
        << "lane " << l << " item " << items[l];
    ASSERT_EQ(scratch.large[l] != 0, witness.large)
        << "lane " << l << " item " << items[l];
    ASSERT_EQ(scratch.profits[l], witness.profit) << "lane " << l;
    ASSERT_EQ(scratch.weights[l], witness.weight) << "lane " << l;
  }
}

// Every item of three families (needle: a few large items; uncorrelated:
// a spread of efficiencies around the small threshold; subset-sum: equal
// efficiencies) in one batch, then random batches WITH duplicates over
// ragged sizes — the shape the serving batcher actually produces — reusing
// one scratch so a stale lane from a longer batch would show.
TEST(BatchEval, ScalarMatchesPerRequestWitnesses) {
  const std::vector<std::size_t> batch_sizes = {1,  2,  3,  4,  5,   7,
                                                8,  16, 31, 32, 33,  64,
                                                127, 257};
  for (const auto family :
       {knapsack::Family::kNeedle, knapsack::Family::kUncorrelated,
        knapsack::Family::kSubsetSum}) {
    SCOPED_TRACE(knapsack::family_name(family));
    const auto instance = knapsack::make_family(family, 1'500, 17);
    const oracle::MaterializedAccess access(instance);
    const LcaKp lca(access, test_config(0.2));
    const LcaKpRun run = lca.run_warmup(11, 1);
    const BatchEval eval(lca, run);
    BatchScratch scratch;

    std::vector<std::size_t> items(instance.size());
    for (std::size_t i = 0; i < items.size(); ++i) items[i] = i;
    eval.evaluate(items, scratch);
    expect_matches_reference(lca, run, items, scratch);

    util::Xoshiro256 rng(0xF00D ^ static_cast<std::uint64_t>(family));
    for (const auto batch : batch_sizes) {
      items.resize(batch);
      for (auto& item : items) {
        item = static_cast<std::size_t>(rng.next_below(instance.size()));
      }
      items.push_back(items.front());  // at least one duplicate lane
      eval.evaluate(items, scratch);
      expect_matches_reference(lca, run, items, scratch);
    }
  }
}

TEST(BatchEval, LaneFaultIsolation) {
  const auto instance =
      knapsack::make_family(knapsack::Family::kUncorrelated, 800, 31);
  const oracle::MaterializedAccess inner(instance);
  FailingAccess access(inner);
  const LcaKp lca(access, test_config());
  const LcaKpRun run = lca.run_warmup(3, 1);  // warm while healthy
  const LcaKp clean_lca(inner, test_config());

  for (std::size_t i = 1; i < 64; i += 2) access.fail_items.insert(i);
  std::vector<std::size_t> items(64);
  for (std::size_t i = 0; i < items.size(); ++i) items[i] = i;

  BatchEval eval(lca, run);
  BatchScratch scratch;
  eval.evaluate(items, scratch);

  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i % 2 == 1) {
      EXPECT_EQ(scratch.status[i], LaneStatus::kUnavailable);
      EXPECT_EQ(scratch.answers[i], 0) << "failed lane must not claim yes";
      EXPECT_EQ(scratch.large[i], 0);
    } else {
      // Healthy siblings of a dead lane still get exact answers.
      LcaKp::AnswerWitness witness;
      const bool answer = clean_lca.answer_with_witness(run, i, witness);
      ASSERT_EQ(scratch.status[i], LaneStatus::kOk);
      EXPECT_EQ(scratch.answers[i] != 0, answer) << "item " << i;
      EXPECT_EQ(scratch.profits[i], witness.profit);
      EXPECT_EQ(scratch.weights[i], witness.weight);
    }
  }
}

TEST(BatchEval, EmptyBatchAndScratchReuse) {
  const auto instance =
      knapsack::make_family(knapsack::Family::kNeedle, 400, 13);
  const oracle::MaterializedAccess access(instance);
  const LcaKp lca(access, test_config());
  const LcaKpRun run = lca.run_warmup(5, 1);
  BatchEval eval(lca, run);

  BatchScratch scratch;
  eval.evaluate(std::vector<std::size_t>{}, scratch);
  EXPECT_EQ(scratch.size, 0u);

  // Large batch, then a small one reusing the same scratch: no stale lane
  // may leak into the shorter batch's results.
  std::vector<std::size_t> big(200);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
  eval.evaluate(big, scratch);
  const std::vector<std::size_t> small = {7, 7, 399};
  eval.evaluate(small, scratch);
  EXPECT_EQ(scratch.size, small.size());
  for (std::size_t l = 0; l < small.size(); ++l) {
    LcaKp::AnswerWitness witness;
    const bool answer = lca.answer_with_witness(run, small[l], witness);
    EXPECT_EQ(scratch.answers[l] != 0, answer);
    EXPECT_EQ(scratch.profits[l], witness.profit);
  }
  EXPECT_EQ(scratch.answers[0], scratch.answers[1])
      << "duplicate lanes answer identically";
}

}  // namespace
}  // namespace lcaknap::core
