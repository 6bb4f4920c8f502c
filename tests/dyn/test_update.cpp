#include "dyn/update.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "knapsack/instance.h"
#include "util/rng.h"

namespace lcaknap::dyn {
namespace {

UpdateBatch weight_only_batch(std::uint64_t epoch_id) {
  UpdateBatch batch;
  batch.epoch_id = epoch_id;
  batch.mutations.push_back(
      {MutationKind::kWeightUpdate, /*index=*/3, /*profit=*/0, /*weight=*/40});
  batch.mutations.push_back(
      {MutationKind::kWeightUpdate, /*index=*/7, /*profit=*/0, /*weight=*/55});
  return batch;
}

UpdateBatch mixed_batch(std::uint64_t epoch_id) {
  UpdateBatch batch;
  batch.epoch_id = epoch_id;
  batch.mutations.push_back(
      {MutationKind::kInsert, /*index=*/0, /*profit=*/900, /*weight=*/120});
  batch.mutations.push_back(
      {MutationKind::kDelete, /*index=*/1, /*profit=*/0, /*weight=*/0});
  batch.mutations.push_back(
      {MutationKind::kProfitUpdate, /*index=*/2, /*profit=*/500, /*weight=*/0});
  batch.mutations.push_back(
      {MutationKind::kWeightUpdate, /*index=*/4, /*profit=*/0, /*weight=*/9});
  return batch;
}

TEST(EpochLog, SerializeParseRoundTripsByteExactly) {
  const std::vector<UpdateBatch> batches = {weight_only_batch(1),
                                            mixed_batch(2)};
  const std::string text = serialize_epoch_log(batches);
  const auto parsed = parse_epoch_log(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].epoch_id, 1u);
  EXPECT_EQ(parsed[1].epoch_id, 2u);
  ASSERT_EQ(parsed[1].mutations.size(), 4u);
  EXPECT_EQ(parsed[1].mutations[0].kind, MutationKind::kInsert);
  EXPECT_EQ(parsed[1].mutations[0].profit, 900);
  EXPECT_EQ(parsed[1].mutations[0].weight, 120);
  EXPECT_EQ(parsed[1].mutations[1].kind, MutationKind::kDelete);
  EXPECT_EQ(parsed[1].mutations[1].index, 1u);
  // The round trip is byte-exact: re-serializing the parse reproduces the
  // original text, seals included.
  EXPECT_EQ(serialize_epoch_log(parsed), text);
}

TEST(EpochLog, SealAutoAcceptsTheComputedCrc) {
  const std::string text =
      "# hand-authored log\n"
      "epoch 1\n"
      "weight 3 40\n"
      "seal auto\n";
  const auto parsed = parse_epoch_log(text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].epoch_id, 1u);
  ASSERT_EQ(parsed[0].mutations.size(), 1u);
  EXPECT_EQ(parsed[0].mutations[0].kind, MutationKind::kWeightUpdate);
}

TEST(EpochLog, SealMismatchIsATypedErrorWithLocation) {
  const std::string text =
      "epoch 1\n"
      "weight 3 40\n"
      "seal 0000000000000000\n";
  try {
    (void)parse_epoch_log(text);
    FAIL() << "expected EpochLogParseError";
  } catch (const EpochLogParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.token(), "0000000000000000");
    EXPECT_NE(std::string(e.what()).find("epoch log:3:"), std::string::npos);
  }
}

TEST(EpochLog, UnknownDirectivePinsLineAndColumn) {
  const std::string text =
      "epoch 1\n"
      "  reprice 3 40\n";
  try {
    (void)parse_epoch_log(text);
    FAIL() << "expected EpochLogParseError";
  } catch (const EpochLogParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 3u);  // 1-based, after the two-space indent
    EXPECT_EQ(e.token(), "reprice");
  }
}

TEST(EpochLog, NonMonotoneEpochIdsRejected) {
  const std::string text = serialize_epoch_log(
      std::vector<UpdateBatch>{weight_only_batch(2), weight_only_batch(2)});
  EXPECT_THROW((void)parse_epoch_log(text), EpochLogParseError);
}

TEST(EpochLog, MutationOutsideABatchRejected) {
  EXPECT_THROW((void)parse_epoch_log("weight 3 40\n"), EpochLogParseError);
}

TEST(EpochLog, UnsealedTrailingBatchRejected) {
  EXPECT_THROW((void)parse_epoch_log("epoch 1\nweight 3 40\n"),
               EpochLogParseError);
}

TEST(EpochLog, NonNumericOperandRejected) {
  try {
    (void)parse_epoch_log("epoch 1\nweight three 40\nseal auto\n");
    FAIL() << "expected EpochLogParseError";
  } catch (const EpochLogParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.token(), "three");
  }
}

TEST(EpochLog, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "\n# leading comment\n"
      "epoch 5\n"
      "# between directives\n"
      "delete 2\n"
      "\n"
      "seal auto\n";
  const auto parsed = parse_epoch_log(text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].epoch_id, 5u);
  ASSERT_EQ(parsed[0].mutations.size(), 1u);
}

TEST(EpochLog, BatchCrcMatchesTheSerializedSeal) {
  const UpdateBatch batch = mixed_batch(3);
  const std::string log = serialize_epoch_log({&batch, 1});
  char expected[32];
  std::snprintf(expected, sizeof expected, "seal %016llx",
                static_cast<unsigned long long>(batch_crc(batch)));
  EXPECT_NE(log.find(expected), std::string::npos);
}

TEST(EpochLog, LoadEpochLogReadsAFile) {
  const auto path = std::filesystem::temp_directory_path() /
                    "lcaknap_test_epoch_log.elog";
  {
    std::ofstream os(path);
    os << serialize_epoch_log(std::vector<UpdateBatch>{weight_only_batch(1)});
  }
  const auto parsed = load_epoch_log(path.string());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].epoch_id, 1u);
  std::filesystem::remove(path);
  EXPECT_THROW((void)load_epoch_log(path.string()), std::runtime_error);
}

// --- apply_batch -----------------------------------------------------------

knapsack::Instance small_instance() {
  return knapsack::Instance(
      {{10, 5}, {20, 3}, {30, 8}, {40, 2}, {50, 7}}, /*capacity=*/10);
}

TEST(ApplyBatch, WeightAndProfitUpdatesWriteInPlace) {
  const auto base = small_instance();
  UpdateBatch batch;
  batch.epoch_id = 1;
  batch.mutations.push_back({MutationKind::kWeightUpdate, 0, 0, 9});
  batch.mutations.push_back({MutationKind::kProfitUpdate, 2, 77, 0});
  const auto next = apply_batch(base, batch);
  EXPECT_EQ(next.size(), base.size());
  EXPECT_EQ(next.item(0).weight, 9);
  EXPECT_EQ(next.item(0).profit, 10);
  EXPECT_EQ(next.item(2).profit, 77);
  // The input instance is untouched.
  EXPECT_EQ(base.item(0).weight, 5);
}

TEST(ApplyBatch, InsertAppendsAndDeleteTombstones) {
  const auto base = small_instance();
  UpdateBatch batch;
  batch.epoch_id = 1;
  batch.mutations.push_back({MutationKind::kInsert, 0, 15, 4});
  batch.mutations.push_back({MutationKind::kDelete, 1, 0, 0});
  const auto next = apply_batch(base, batch);
  ASSERT_EQ(next.size(), base.size() + 1);
  EXPECT_EQ(next.item(5).profit, 15);
  EXPECT_EQ(next.item(5).weight, 4);
  // Tombstone: (0, 0), every other index stable.
  EXPECT_EQ(next.item(1).profit, 0);
  EXPECT_EQ(next.item(1).weight, 0);
  EXPECT_EQ(next.item(2).profit, 30);
}

TEST(ApplyBatch, RejectsInvalidMutations) {
  const auto base = small_instance();
  const auto expect_base_unchanged = [&base] {
    const auto fresh = small_instance();
    ASSERT_EQ(base.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(base.item(i), fresh.item(i)) << "item " << i;
    }
    EXPECT_EQ(base.total_profit(), fresh.total_profit());
    EXPECT_EQ(base.total_weight(), fresh.total_weight());
  };
  UpdateBatch batch;
  batch.epoch_id = 1;
  batch.mutations.push_back({MutationKind::kDelete, 99, 0, 0});
  EXPECT_THROW((void)apply_batch(base, batch), std::invalid_argument);
  expect_base_unchanged();

  batch.mutations = {{MutationKind::kProfitUpdate, 0, -1, 0}};
  EXPECT_THROW((void)apply_batch(base, batch), std::invalid_argument);
  expect_base_unchanged();

  // A weight above the capacity violates the Definition 2.2 convention the
  // Instance constructor enforces.
  batch.mutations = {{MutationKind::kWeightUpdate, 0, 0, 11}};
  EXPECT_THROW((void)apply_batch(base, batch), std::invalid_argument);
  expect_base_unchanged();

  // Valid writes to the base's chunk come first; the last one fails.
  batch.mutations = {{MutationKind::kWeightUpdate, 1, 0, 1},
                     {MutationKind::kDelete, 2, 0, 0},
                     {MutationKind::kInsert, 0, 5, 5},
                     {MutationKind::kWeightUpdate, 5, 0, 11}};
  EXPECT_THROW((void)apply_batch(base, batch), std::invalid_argument);
  expect_base_unchanged();
}

TEST(ApplyBatch, MatchesAFullCopyOnRandomBatches) {
  // Each epoch is checked against a plain item vector that applies the same
  // mutations; the instances of earlier epochs must stay as they were while
  // later epochs clone and extend the chunks they share.
  constexpr std::int64_t kCapacity = 1'000;
  util::Xoshiro256 rng(2024);
  const auto random_item = [&rng] {
    return knapsack::Item{1 + static_cast<std::int64_t>(rng.next_below(100)),
                          static_cast<std::int64_t>(rng.next_below(kCapacity + 1))};
  };
  std::vector<knapsack::Item> reference;
  for (std::size_t i = 0; i < 3 * knapsack::Instance::kChunkItems + 10; ++i) {
    reference.push_back(random_item());
  }
  std::vector<knapsack::Instance> epochs;
  std::vector<std::vector<knapsack::Item>> references;
  epochs.emplace_back(reference, kCapacity);
  references.push_back(reference);

  const auto expect_equal = [](const knapsack::Instance& inst,
                               const std::vector<knapsack::Item>& items,
                               std::size_t epoch) {
    ASSERT_EQ(inst.size(), items.size()) << "epoch " << epoch;
    std::int64_t profit = 0;
    std::int64_t weight = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      ASSERT_EQ(inst.item(i), items[i]) << "epoch " << epoch << " item " << i;
      profit += items[i].profit;
      weight += items[i].weight;
    }
    EXPECT_EQ(inst.total_profit(), profit) << "epoch " << epoch;
    EXPECT_EQ(inst.total_weight(), weight == 0 ? 1 : weight) << "epoch " << epoch;
  };

  for (std::uint64_t epoch = 1; epoch <= 40; ++epoch) {
    UpdateBatch batch;
    batch.epoch_id = epoch;
    // A few indices recur within the batch.
    std::vector<std::size_t> hot;
    for (int h = 0; h < 3; ++h) {
      hot.push_back(static_cast<std::size_t>(rng.next_below(reference.size())));
    }
    // Every fourth epoch inserts past the next chunk boundary.
    const std::size_t inserts =
        epoch % 4 == 0 ? knapsack::Instance::kChunkItems + 5 : rng.next_below(3);
    const std::size_t edits = 1 + rng.next_below(30);
    std::vector<MutationKind> kinds(inserts, MutationKind::kInsert);
    for (std::size_t e = 0; e < edits; ++e) {
      const auto pick = rng.next_below(10);
      kinds.push_back(pick < 4   ? MutationKind::kWeightUpdate
                      : pick < 8 ? MutationKind::kProfitUpdate
                                 : MutationKind::kDelete);
    }
    // Shuffle so edits may target items inserted earlier in the batch.
    for (std::size_t k = kinds.size(); k > 1; --k) {
      std::swap(kinds[k - 1], kinds[rng.next_below(k)]);
    }
    for (const auto kind : kinds) {
      Mutation m;
      m.kind = kind;
      if (kind == MutationKind::kInsert) {
        const auto item = random_item();
        m.profit = item.profit;
        m.weight = item.weight;
        reference.push_back(item);
        batch.mutations.push_back(m);
        continue;
      }
      m.index = rng.next_below(4) == 0
                    ? hot[rng.next_below(hot.size())]
                    : static_cast<std::size_t>(rng.next_below(reference.size()));
      const auto item = random_item();
      switch (kind) {
        case MutationKind::kWeightUpdate:
          m.weight = item.weight;
          reference[m.index].weight = m.weight;
          break;
        case MutationKind::kProfitUpdate:
          m.profit = item.profit;
          reference[m.index].profit = m.profit;
          break;
        default:
          reference[m.index] = knapsack::Item{0, 0};
          break;
      }
      batch.mutations.push_back(m);
    }
    epochs.push_back(apply_batch(epochs.back(), batch));
    references.push_back(reference);
    expect_equal(epochs.back(), reference, epoch);
  }
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    expect_equal(epochs[e], references[e], e);
  }
}

TEST(ApplyBatch, RejectsTombstoningAllProfit) {
  const knapsack::Instance base({{10, 1}, {0, 1}}, /*capacity=*/5);
  UpdateBatch batch;
  batch.epoch_id = 1;
  batch.mutations.push_back({MutationKind::kDelete, 0, 0, 0});
  // Total profit would drop to zero, which Instance rejects.
  EXPECT_THROW((void)apply_batch(base, batch), std::invalid_argument);
}

}  // namespace
}  // namespace lcaknap::dyn
