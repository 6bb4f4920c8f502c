#include "fault/verifying.h"

#include <gtest/gtest.h>

#include <functional>

#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/retrying.h"

namespace lcaknap::fault {
namespace {

/// Wraps a real oracle and lets a test mutate the answer on its way out —
/// the minimal model of a corrupting transport.
class TamperAccess final : public oracle::InstanceAccess {
 public:
  explicit TamperAccess(const oracle::InstanceAccess& inner) : inner_(&inner) {}

  [[nodiscard]] std::size_t size() const noexcept override { return inner_->size(); }
  [[nodiscard]] std::int64_t capacity() const noexcept override {
    return inner_->capacity();
  }
  [[nodiscard]] std::int64_t total_profit() const noexcept override {
    return inner_->total_profit();
  }
  [[nodiscard]] std::int64_t total_weight() const noexcept override {
    return inner_->total_weight();
  }

  std::function<void(knapsack::Item&)> tamper_item;
  std::function<void(oracle::WeightedDraw&)> tamper_draw;

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override {
    auto item = inner_->query(i);
    if (tamper_item) tamper_item(item);
    return item;
  }
  [[nodiscard]] oracle::WeightedDraw do_sample(util::Xoshiro256& rng) const override {
    auto draw = inner_->weighted_sample(rng);
    if (tamper_draw) tamper_draw(draw);
    return draw;
  }

 private:
  const oracle::InstanceAccess* inner_;
};

class VerifyingTest : public ::testing::Test {
 protected:
  VerifyingTest()
      : inst_(knapsack::make_family(knapsack::Family::kUncorrelated, 40, 1)),
        inner_(inst_),
        tamper_(inner_),
        verifying_(tamper_, registry_) {}

  knapsack::Instance inst_;
  oracle::MaterializedAccess inner_;
  TamperAccess tamper_;
  metrics::Registry registry_;
  VerifyingAccess verifying_;
};

TEST_F(VerifyingTest, CleanAnswersPassThroughUntouched) {
  util::Xoshiro256 rng(3);
  for (std::size_t i = 0; i < inst_.size(); ++i) {
    EXPECT_EQ(verifying_.query(i), inst_.item(i));
    EXPECT_NO_THROW((void)verifying_.weighted_sample(rng));
  }
  EXPECT_EQ(verifying_.corruptions_detected(), 0u);
}

TEST_F(VerifyingTest, DetectsProfitAboveTotal) {
  tamper_.tamper_item = [this](knapsack::Item& item) {
    item.profit = inner_.total_profit() + 1;
  };
  EXPECT_THROW((void)verifying_.query(0), CorruptedAnswer);
  EXPECT_EQ(verifying_.corruptions_detected(), 1u);
}

TEST_F(VerifyingTest, DetectsNegativeWeight) {
  tamper_.tamper_item = [](knapsack::Item& item) { item.weight = -5; };
  EXPECT_THROW((void)verifying_.query(0), CorruptedAnswer);
}

TEST_F(VerifyingTest, DetectsWeightAboveTotal) {
  tamper_.tamper_item = [this](knapsack::Item& item) {
    item.weight = inner_.total_weight() + 7;
  };
  EXPECT_THROW((void)verifying_.query(0), CorruptedAnswer);
}

TEST_F(VerifyingTest, DetectsOutOfRangeSampleIndex) {
  tamper_.tamper_draw = [this](oracle::WeightedDraw& draw) {
    draw.index = inner_.size() + 3;
  };
  util::Xoshiro256 rng(5);
  EXPECT_THROW((void)verifying_.weighted_sample(rng), CorruptedAnswer);
  EXPECT_EQ(verifying_.corruptions_detected(), 1u);
}

TEST_F(VerifyingTest, DetectionIsRetryable) {
  // CorruptedAnswer must be catchable as OracleUnavailable, so every retry
  // and degradation path written against the latter handles it for free.
  tamper_.tamper_item = [](knapsack::Item& item) { item.weight = -1; };
  EXPECT_THROW((void)verifying_.query(0), oracle::OracleUnavailable);

  // A one-shot corruption is healed by the retry layer: the second attempt
  // re-reads the true item and the caller never sees the corruption.
  int remaining = 1;
  tamper_.tamper_item = [&remaining](knapsack::Item& item) {
    if (remaining > 0) {
      --remaining;
      item.weight = -1;
    }
  };
  const oracle::RetryingAccess retrying(verifying_, oracle::RetryConfig{.max_attempts = 4},
                                        util::system_clock(), registry_);
  EXPECT_EQ(retrying.query(2), inst_.item(2));
  EXPECT_EQ(retrying.retries_performed(), 1u);
}

TEST_F(VerifyingTest, CountsDetectionsInRegistry) {
  tamper_.tamper_item = [](knapsack::Item& item) { item.weight = -1; };
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)verifying_.query(0), CorruptedAnswer);
  }
  EXPECT_EQ(verifying_.corruptions_detected(), 3u);
  EXPECT_EQ(registry_
                .counter("oracle_corruptions_detected_total",
                         "Oracle answers rejected by invariant verification")
                .value(),
            3u);
}

}  // namespace
}  // namespace lcaknap::fault
