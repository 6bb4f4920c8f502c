#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "store/snapshot.h"

/// Snapshot format contract (ISSUE 5 tentpole): a rehydrated `LcaKpRun` is
/// byte-indistinguishable from the live warm-up it persisted — `run_digest`
/// equality, field-wise equality including bit-exact doubles — and every
/// defended failure mode (wrong instance/config/tape, bad magic, unknown
/// version, bit flips, missing file) raises its own typed error instead of
/// ever producing a run.

namespace lcaknap::store {
namespace {

core::LcaKpConfig small_config(double eps = 0.25, std::uint64_t seed = 0xABCD) {
  core::LcaKpConfig config;
  config.eps = eps;
  config.seed = seed;
  config.large_samples = 2'000;     // test-sized budgets: the format does not
  config.quantile_samples = 4'096;  // care how much sampling built the state
  return config;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lcaknap_snapshot_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotTest, EncodeDecodeRoundTripIsIdentity) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 5'000, 3);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config(0.2));
  const auto run = lca.run_warmup(7);
  const auto fingerprint = fingerprint_of(lca, 7);

  const auto bytes = encode_snapshot(fingerprint, run);
  SnapshotFingerprint stored;
  const auto decoded = decode_snapshot(bytes, &fingerprint, &stored);

  EXPECT_EQ(core::run_digest(decoded), core::run_digest(run));
  EXPECT_TRUE(stored.equals(fingerprint));
  EXPECT_EQ(decoded.index_large, run.index_large);
  EXPECT_EQ(decoded.e_small_grid, run.e_small_grid);
  EXPECT_EQ(decoded.singleton, run.singleton);
  EXPECT_EQ(decoded.degenerate, run.degenerate);
  EXPECT_EQ(decoded.thresholds_grid, run.thresholds_grid);
  EXPECT_EQ(decoded.thresholds, run.thresholds);
  EXPECT_EQ(decoded.large_mass, run.large_mass);  // bit-exact
  EXPECT_EQ(decoded.q, run.q);
  EXPECT_EQ(decoded.t, run.t);
  EXPECT_EQ(decoded.samples_used, run.samples_used);
  EXPECT_EQ(decoded.tilde_size, run.tilde_size);
}

TEST_F(SnapshotTest, EncodingIsCanonical) {
  // Equal states encode to identical bytes: the unordered large-item set is
  // sorted on the way out, all widths are fixed, so snapshot bytes can be
  // compared or content-addressed directly.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 4'000, 9);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config());
  const auto fingerprint = fingerprint_of(lca, 5);
  const auto first = encode_snapshot(fingerprint, lca.run_warmup(5));
  const auto second = encode_snapshot(fingerprint, lca.run_warmup(5));
  EXPECT_EQ(first, second);
}

TEST_F(SnapshotTest, FileRoundTripLeavesNoTemp) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 5);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config(0.2, 0x11));
  const auto run = lca.run_warmup(3);
  const auto fingerprint = fingerprint_of(lca, 3);

  const auto file = path("state.snap");
  write_snapshot(file, fingerprint, run);
  EXPECT_TRUE(std::filesystem::exists(file));
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"))
      << "atomic write must not leave its temp behind";

  const auto loaded = read_snapshot(file, &fingerprint);
  EXPECT_EQ(core::run_digest(loaded), core::run_digest(run));
  EXPECT_TRUE(read_snapshot_fingerprint(file).equals(fingerprint));
}

TEST_F(SnapshotTest, RewriteReplacesAtomically) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 5);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config(0.2, 0x11));
  const auto file = path("state.snap");
  write_snapshot(file, fingerprint_of(lca, 3), lca.run_warmup(3));
  // Overwriting with a different tape's state must fully replace the file.
  write_snapshot(file, fingerprint_of(lca, 4), lca.run_warmup(4));
  const auto stored = read_snapshot_fingerprint(file);
  EXPECT_EQ(stored.tape_seed, 4u);
}

TEST_F(SnapshotTest, FingerprintMismatchIsRejected) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 5'000, 3);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config(0.2, 0xAA));
  const auto run = lca.run_warmup(7);
  const auto bytes = encode_snapshot(fingerprint_of(lca, 7), run);

  // Same instance, different eps.
  const core::LcaKp other_eps(access, small_config(0.25, 0xAA));
  const auto fp_eps = fingerprint_of(other_eps, 7);
  EXPECT_THROW((void)decode_snapshot(bytes, &fp_eps), SnapshotMismatch);
  // Different shared seed.
  const core::LcaKp other_seed(access, small_config(0.2, 0xAB));
  const auto fp_seed = fingerprint_of(other_seed, 7);
  EXPECT_THROW((void)decode_snapshot(bytes, &fp_seed), SnapshotMismatch);
  // Different warm-up tape.
  const auto fp_tape = fingerprint_of(lca, 8);
  EXPECT_THROW((void)decode_snapshot(bytes, &fp_tape), SnapshotMismatch);
  // Different epoch of the same instance (src/dyn): an epoch-0 snapshot
  // never serves epoch 1.
  const auto fp_epoch = fingerprint_of(lca, 7, /*epoch_id=*/1);
  EXPECT_THROW((void)decode_snapshot(bytes, &fp_epoch), SnapshotMismatch);
  // Different instance (n differs).
  const auto small = knapsack::make_family(knapsack::Family::kUncorrelated, 4'999, 3);
  const oracle::MaterializedAccess small_access(small);
  const core::LcaKp other_inst(small_access, small_config(0.2, 0xAA));
  const auto fp_inst = fingerprint_of(other_inst, 7);
  EXPECT_THROW((void)decode_snapshot(bytes, &fp_inst), SnapshotMismatch);
  // Without an expected fingerprint the same bytes decode fine.
  EXPECT_EQ(core::run_digest(decode_snapshot(bytes)), core::run_digest(run));
}

// Re-seals a tampered buffer so it passes the CRC and exercises the check
// *behind* the checksum (magic, version).
std::string reseal(std::string bytes) {
  const auto body = std::string_view(bytes).substr(0, bytes.size() - 8);
  const std::uint64_t crc = crc64(body);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return bytes;
}

TEST_F(SnapshotTest, BadMagicAndUnknownVersionAreCorrupt) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 3'000, 2);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config());
  const auto good = encode_snapshot(fingerprint_of(lca, 1), lca.run_warmup(1));

  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)decode_snapshot(reseal(bad_magic)), SnapshotCorrupt);

  auto bad_version = good;
  bad_version[8] = static_cast<char>(kSnapshotVersion + 1);
  EXPECT_THROW((void)decode_snapshot(reseal(bad_version)), SnapshotCorrupt);

  // Unsealed tampering fails the CRC before anything else looks at it.
  EXPECT_THROW((void)decode_snapshot(bad_magic), SnapshotCorrupt);
}

TEST_F(SnapshotTest, MissingFileIsIoError) {
  EXPECT_THROW((void)read_snapshot(path("nope.snap")), SnapshotIoError);
  EXPECT_THROW((void)read_snapshot_fingerprint(path("nope.snap")),
               SnapshotIoError);
}

TEST_F(SnapshotTest, Crc64MatchesKnownVector) {
  // CRC-64/XZ ("ECMA-182 reflected") check vector: crc64("123456789").
  EXPECT_EQ(crc64("123456789"), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(crc64(""), 0ull);
}

TEST_F(SnapshotTest, EngineAdoptingSnapshotServesIdenticalAnswers) {
  // The integration the whole subsystem exists for: an engine warmed from a
  // restored snapshot is indistinguishable from one that paid the warm-up —
  // same digest, same answer on every item.
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 3'000, 8);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, small_config(0.2, 0xF00D));

  serve::EngineConfig live_config;
  live_config.workers = 2;
  live_config.warmup_tape_seed = 13;
  live_config.warmup_threads = 1;
  metrics::Registry live_registry;
  serve::ServeEngine live(lca, live_config, live_registry);

  const auto file = path("engine.snap");
  const auto fingerprint = fingerprint_of(lca, 13);
  write_snapshot(file, fingerprint, live.run());
  auto restored_config = live_config;
  restored_config.warm_state = std::make_shared<const core::LcaKpRun>(
      read_snapshot(file, &fingerprint));
  metrics::Registry restored_registry;
  serve::ServeEngine restored(lca, restored_config, restored_registry);

  EXPECT_EQ(core::run_digest(restored.run()), core::run_digest(live.run()));
  for (std::size_t item = 0; item < inst.size(); item += 7) {
    const auto a = live.submit_wait(item);
    const auto b = restored.submit_wait(item);
    ASSERT_EQ(a.outcome, serve::Outcome::kOk);
    ASSERT_EQ(b.outcome, serve::Outcome::kOk);
    EXPECT_EQ(a.answer, b.answer) << "item " << item;
  }
}

}  // namespace
}  // namespace lcaknap::store
