#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "store/snapshot.h"
#include "store/state_store.h"

/// StateStore contract: LRU + snapshot rehydration + single-flight.  The
/// sequential tests pin accounting and the never-serve-a-bad-snapshot rule;
/// the `StateStoreConcurrency` suite (also run under TSan in CI) hammers
/// get() from many threads and asserts the single-flight guarantee by exact
/// count — one live warm-up per cold id, no matter how many callers race.

namespace lcaknap::store {
namespace {

core::LcaKpConfig tenant_config(double eps = 0.25, std::uint64_t seed = 0xABCD) {
  core::LcaKpConfig config;
  config.eps = eps;
  config.seed = seed;
  config.large_samples = 2'000;   // test-sized budgets keep hydration cheap
  config.quantile_samples = 4'096;  // enough that warm-ups are still nontrivial
  return config;
}

class StateStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lcaknap_state_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(StateStoreTest, MissThenHitThenDigestStable) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 3);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config());

  metrics::Registry registry;
  StateStore store({.capacity = 4, .snapshot_dir = dir_.string()}, registry);
  const auto first = store.get("tenant-a", lca, 7);
  const auto second = store.get("tenant-a", lca, 7);
  EXPECT_EQ(first.get(), second.get()) << "hit must share, not recompute";
  EXPECT_EQ(core::run_digest(*first), core::run_digest(lca.run_warmup(7)));

  const auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.live_warmups, 1u);
  EXPECT_EQ(stats.snapshots_saved, 1u);
  EXPECT_TRUE(std::filesystem::exists(store.snapshot_path("tenant-a")));
}

TEST_F(StateStoreTest, SecondStoreRehydratesFromSnapshot) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 3);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config());

  std::uint64_t digest = 0;
  {
    metrics::Registry registry;
    StateStore store({.capacity = 4, .snapshot_dir = dir_.string()}, registry);
    digest = core::run_digest(*store.get("tenant-a", lca, 7));
  }
  // A fresh store (a "new process") must restore, not re-warm.
  metrics::Registry registry;
  StateStore store({.capacity = 4, .snapshot_dir = dir_.string()}, registry);
  const auto restored = store.get("tenant-a", lca, 7);
  EXPECT_EQ(core::run_digest(*restored), digest);
  const auto stats = store.stats();
  EXPECT_EQ(stats.snapshot_hydrations, 1u);
  EXPECT_EQ(stats.live_warmups, 0u);
}

TEST_F(StateStoreTest, CorruptSnapshotNeverServedAndRepaired) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 3);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config());

  metrics::Registry seed_registry;
  StateStore seeder({.capacity = 4, .snapshot_dir = dir_.string()}, seed_registry);
  const auto digest = core::run_digest(*seeder.get("tenant-a", lca, 7));

  // Flip one payload byte in place.
  const auto path = seeder.snapshot_path("tenant-a");
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    char byte = 0;
    file.seekg(40);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(40);
    file.write(&byte, 1);
  }

  metrics::Registry registry;
  StateStore store({.capacity = 4, .snapshot_dir = dir_.string()}, registry);
  const auto run = store.get("tenant-a", lca, 7);
  EXPECT_EQ(core::run_digest(*run), digest) << "served state must come from a "
                                               "live warm-up, not the corrupt "
                                               "snapshot";
  const auto stats = store.stats();
  EXPECT_EQ(stats.rejected_corrupt, 1u);
  EXPECT_EQ(stats.live_warmups, 1u);
  EXPECT_EQ(stats.snapshot_hydrations, 0u);
  EXPECT_EQ(stats.snapshots_saved, 1u) << "the repaired snapshot is re-persisted";

  // The re-persisted file is valid again: a third store restores from it.
  metrics::Registry verify_registry;
  StateStore verifier({.capacity = 4, .snapshot_dir = dir_.string()},
                      verify_registry);
  (void)verifier.get("tenant-a", lca, 7);
  EXPECT_EQ(verifier.stats().snapshot_hydrations, 1u);
}

TEST_F(StateStoreTest, ForeignSnapshotCountsMismatch) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 3);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config(0.25, 0xAAA));
  const core::LcaKp other(access, tenant_config(0.25, 0xBBB));

  metrics::Registry seed_registry;
  StateStore seeder({.capacity = 4, .snapshot_dir = dir_.string()}, seed_registry);
  (void)seeder.get("tenant-a", other, 7);  // snapshot under the other seed

  metrics::Registry registry;
  StateStore store({.capacity = 4, .snapshot_dir = dir_.string()}, registry);
  const auto run = store.get("tenant-a", lca, 7);
  EXPECT_EQ(core::run_digest(*run), core::run_digest(lca.run_warmup(7)));
  const auto stats = store.stats();
  EXPECT_EQ(stats.rejected_mismatch, 1u);
  EXPECT_EQ(stats.live_warmups, 1u);
}

TEST_F(StateStoreTest, LruEvictionAccounting) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 3'000, 5);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config());

  metrics::Registry registry;
  StateStore store({.capacity = 2}, registry);  // memory-only
  (void)store.get("a", lca, 1);
  (void)store.get("b", lca, 2);
  (void)store.get("a", lca, 1);  // refresh a: b is now the LRU victim
  (void)store.get("c", lca, 3);  // evicts b
  EXPECT_TRUE(store.contains("a"));
  EXPECT_FALSE(store.contains("b"));
  EXPECT_TRUE(store.contains("c"));
  EXPECT_EQ(store.size(), 2u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(StateStoreTest, InvalidIdsAndConfigRejected) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 2'000, 5);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config());
  metrics::Registry registry;
  StateStore store({.capacity = 2}, registry);
  EXPECT_THROW((void)store.get("", lca, 1), std::invalid_argument);
  EXPECT_THROW((void)store.get("../escape", lca, 1), std::invalid_argument);
  EXPECT_THROW((void)store.get("has space", lca, 1), std::invalid_argument);
  metrics::Registry other;
  EXPECT_THROW(StateStore({.capacity = 0}, other), std::invalid_argument);
}

// --- StateStoreConcurrency: the suite CI also runs under TSan ---------------

TEST(StateStoreConcurrency, SingleFlightWarmsEachIdExactlyOnce) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 3);
  const oracle::MaterializedAccess access(inst);

  constexpr std::size_t kIds = 4;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kGetsPerThread = 32;
  // Per-id tenants with distinct seeds: digests must stay per-id stable.
  std::vector<std::unique_ptr<core::LcaKp>> tenants;
  std::vector<std::uint64_t> expected_digests;
  for (std::size_t i = 0; i < kIds; ++i) {
    tenants.push_back(std::make_unique<core::LcaKp>(
        access, tenant_config(0.25, 0x1000 + i)));
    expected_digests.push_back(
        core::run_digest(tenants.back()->run_warmup(100 + i)));
  }

  metrics::Registry registry;
  // Memory-only, capacity >= ids: every id is warmed exactly once ever.
  StateStore store({.capacity = kIds}, registry);
  std::atomic<std::size_t> wrong_digests{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kGetsPerThread; ++k) {
        const std::size_t i = (t + k) % kIds;
        const auto run =
            store.get("tenant-" + std::to_string(i), *tenants[i], 100 + i);
        if (core::run_digest(*run) != expected_digests[i]) {
          wrong_digests.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong_digests.load(), 0u);
  const auto stats = store.stats();
  // The single-flight guarantee, by exact count: one warm-up per id.
  EXPECT_EQ(stats.live_warmups, kIds);
  EXPECT_EQ(stats.misses, kIds);
  EXPECT_EQ(stats.evictions, 0u);
  // Conservation: every get() is exactly one of hit/miss/coalesced-wait.
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            kThreads * kGetsPerThread);
}

TEST(StateStoreConcurrency, EvictionChurnStaysConsistent) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 3'000, 5);
  const oracle::MaterializedAccess access(inst);

  constexpr std::size_t kIds = 4;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kGetsPerThread = 16;
  std::vector<std::unique_ptr<core::LcaKp>> tenants;
  std::vector<std::uint64_t> expected_digests;
  for (std::size_t i = 0; i < kIds; ++i) {
    tenants.push_back(std::make_unique<core::LcaKp>(
        access, tenant_config(0.25, 0x2000 + i)));
    expected_digests.push_back(
        core::run_digest(tenants.back()->run_warmup(200 + i)));
  }

  metrics::Registry registry;
  // Capacity below the id count: hydrations recur, but answers never change
  // and the books still balance.
  StateStore store({.capacity = 2}, registry);
  std::atomic<std::size_t> wrong_digests{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kGetsPerThread; ++k) {
        const std::size_t i = (t * 3 + k) % kIds;
        const auto run =
            store.get("tenant-" + std::to_string(i), *tenants[i], 200 + i);
        if (core::run_digest(*run) != expected_digests[i]) {
          wrong_digests.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong_digests.load(), 0u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            kThreads * kGetsPerThread);
  EXPECT_EQ(stats.live_warmups, stats.misses);
  EXPECT_GE(stats.evictions, kIds - 2);  // at least the end-state overflow
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStoreConcurrency, HydrationUnderEvictionChurnServesOnlyGoodState) {
  // Disk-backed store with capacity below the id count: every re-entry of
  // an evicted id races snapshot hydration against concurrent evictions.
  // The answers must stay digest-stable whichever path (hydrate or live
  // warm-up) wins, and the books must balance.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lcaknap_state_store_churn_" +
                    std::to_string(
                        ::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 3'000, 5);
  const oracle::MaterializedAccess access(inst);
  constexpr std::size_t kIds = 4;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kGetsPerThread = 16;
  std::vector<std::unique_ptr<core::LcaKp>> tenants;
  std::vector<std::uint64_t> expected_digests;
  for (std::size_t i = 0; i < kIds; ++i) {
    tenants.push_back(std::make_unique<core::LcaKp>(
        access, tenant_config(0.25, 0x3000 + i)));
    expected_digests.push_back(
        core::run_digest(tenants.back()->run_warmup(300 + i)));
  }

  metrics::Registry registry;
  StateStore store({.capacity = 2, .snapshot_dir = dir.string()}, registry);
  std::atomic<std::size_t> wrong_digests{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kGetsPerThread; ++k) {
        const std::size_t i = (t * 3 + k) % kIds;
        const auto run =
            store.get("tenant-" + std::to_string(i), *tenants[i], 300 + i);
        if (core::run_digest(*run) != expected_digests[i]) {
          wrong_digests.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong_digests.load(), 0u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            kThreads * kGetsPerThread);
  // Disk-backed churn: after the first warm-up of each id, re-entries
  // hydrate from the snapshot instead of re-warming.
  EXPECT_EQ(stats.live_warmups, kIds);
  EXPECT_EQ(stats.snapshot_hydrations, stats.misses - kIds);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.rejected_corrupt + stats.rejected_mismatch, 0u);
  std::filesystem::remove_all(dir);
}

TEST(StateStoreConcurrency, SnapshotReplacedMidReadIsRejectedOrCleanNeverTorn) {
  // The atomic-rename discipline (writer: temp + rename; also
  // fleet::ship_snapshot) means a reader racing a replacement sees the
  // complete old file or the complete new file.  A writer thread flips the
  // snapshot between a valid copy and a corrupted copy while readers
  // hydrate fresh stores: every read must end in exactly one of
  // {clean hydration, typed rejection + live warm-up} — and the served
  // digest is correct either way.  A torn read would surface as a wrong
  // digest or an unhandled decode crash; neither may happen.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lcaknap_state_store_rename_race_" +
                    std::to_string(
                        ::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 3'000, 5);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config(0.25, 0x4001));
  const auto expected = core::run_digest(lca.run_warmup(7));

  std::filesystem::path snap_path;
  {
    metrics::Registry seed_registry;
    StateStore seeder({.capacity = 2, .snapshot_dir = dir.string()},
                      seed_registry);
    (void)seeder.get("tenant-a", lca, 7);
    snap_path = seeder.snapshot_path("tenant-a");
  }
  // Two immutable source images the writer alternates between.
  const auto valid_copy = dir / "valid.bin";
  const auto corrupt_copy = dir / "corrupt.bin";
  std::filesystem::copy_file(snap_path, valid_copy);
  std::filesystem::copy_file(snap_path, corrupt_copy);
  {
    std::fstream file(corrupt_copy, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    char byte = 0;
    file.seekg(40);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(40);
    file.write(&byte, 1);
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    const auto temp = dir / "tenant-a.snap.replace.tmp";
    bool corrupt = false;
    while (!stop.load(std::memory_order_relaxed)) {
      std::filesystem::copy_file(corrupt ? corrupt_copy : valid_copy, temp,
                                 std::filesystem::copy_options::overwrite_existing);
      std::filesystem::rename(temp, snap_path);  // atomic publish
      corrupt = !corrupt;
    }
  });

  std::size_t hydrated = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 12; ++round) {
    metrics::Registry registry;
    StateStore reader({.capacity = 2, .snapshot_dir = dir.string()}, registry);
    const auto run = reader.get("tenant-a", lca, 7);
    EXPECT_EQ(core::run_digest(*run), expected)
        << "round " << round << ": a racing replacement leaked bad state";
    const auto stats = reader.stats();
    // Exactly one of the two legal paths, never a third state.
    EXPECT_EQ(stats.snapshot_hydrations + stats.live_warmups, 1u);
    EXPECT_EQ(stats.rejected_corrupt, stats.live_warmups);
    hydrated += stats.snapshot_hydrations;
    rejected += stats.rejected_corrupt;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(hydrated + rejected, 12u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lcaknap::store
