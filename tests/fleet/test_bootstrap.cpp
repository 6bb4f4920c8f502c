#include "fleet/bootstrap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "store/state_store.h"
#include "util/virtual_clock.h"

/// \file test_bootstrap.cpp
/// Snapshot-shipped bootstrap: a shipped `.snap` hydrates a fresh store to
/// the byte-identical warm state (no Theorem 4.1 warm-up paid twice), a
/// shipment corrupted in flight is *rejected by type* and falls back to a
/// live warm-up — never served — and the health frame reports warm only
/// when the tenant actually is.

namespace lcaknap::fleet {
namespace {

core::LcaKpConfig tenant_config() {
  core::LcaKpConfig config;
  config.eps = 0.25;
  config.seed = 0xB007;
  config.large_samples = 2'000;
  config.quantile_samples = 4'096;
  return config;
}

class BootstrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lcaknap_bootstrap_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "source");
    std::filesystem::create_directories(dir_ / "dest");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(BootstrapTest, ShippedSnapshotHydratesByteIdentically) {
  const auto inst =
      knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 3);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config());

  // A donor replica warms and persists the tenant.
  metrics::Registry donor_registry;
  store::StateStore donor({.capacity = 4, .snapshot_dir = (dir_ / "source").string()},
                          donor_registry);
  const auto digest = core::run_digest(*donor.get("tenant-a", lca, 7));

  const auto shipped = ship_snapshot(donor.snapshot_path("tenant-a"),
                                     (dir_ / "dest").string(), "tenant-a");
  EXPECT_EQ(shipped.path, (dir_ / "dest" / "tenant-a.snap").string());
  EXPECT_EQ(shipped.bytes,
            std::filesystem::file_size(donor.snapshot_path("tenant-a")));
  EXPECT_EQ(std::filesystem::file_size(shipped.path), shipped.bytes);

  // The joining replica restores instead of re-warming.
  metrics::Registry joiner_registry;
  store::StateStore joiner({.capacity = 4, .snapshot_dir = (dir_ / "dest").string()},
                           joiner_registry);
  EXPECT_EQ(core::run_digest(*joiner.get("tenant-a", lca, 7)), digest);
  const auto stats = joiner.stats();
  EXPECT_EQ(stats.snapshot_hydrations, 1u);
  EXPECT_EQ(stats.live_warmups, 0u);
}

TEST_F(BootstrapTest, CorruptedShipmentIsRejectedNeverServed) {
  const auto inst =
      knapsack::make_family(knapsack::Family::kUncorrelated, 4'000, 3);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config());

  metrics::Registry donor_registry;
  store::StateStore donor({.capacity = 4, .snapshot_dir = (dir_ / "source").string()},
                          donor_registry);
  const auto digest = core::run_digest(*donor.get("tenant-a", lca, 7));

  const auto shipped = ship_snapshot(donor.snapshot_path("tenant-a"),
                                     (dir_ / "dest").string(), "tenant-a");
  corrupt_snapshot_byte(shipped.path, 40);  // chaos in flight

  metrics::Registry joiner_registry;
  store::StateStore joiner({.capacity = 4, .snapshot_dir = (dir_ / "dest").string()},
                           joiner_registry);
  // Worst case of a corrupted shipment: the cold-start cost — and the
  // served state is still exactly right.
  EXPECT_EQ(core::run_digest(*joiner.get("tenant-a", lca, 7)), digest);
  const auto stats = joiner.stats();
  EXPECT_EQ(stats.rejected_corrupt, 1u);
  EXPECT_EQ(stats.snapshot_hydrations, 0u);
  EXPECT_EQ(stats.live_warmups, 1u);
}

TEST_F(BootstrapTest, CorruptionIsAnXorFlipAtTheClampedOffset) {
  const auto path = (dir_ / "blob.bin").string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "abcd";
  }
  corrupt_snapshot_byte(path, 1);
  {
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes.size(), 4u);
    EXPECT_EQ(bytes[0], 'a');
    EXPECT_EQ(bytes[1], static_cast<char>('b' ^ 0xFF));
  }
  corrupt_snapshot_byte(path, 1);  // involution: a second flip restores
  {
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, "abcd");
  }
  // Offsets wrap modulo the size instead of growing the file.
  corrupt_snapshot_byte(path, 4);
  {
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes.size(), 4u);
    EXPECT_EQ(bytes[0], static_cast<char>('a' ^ 0xFF));
  }
}

TEST_F(BootstrapTest, ShipAndCorruptFailuresAreTyped) {
  EXPECT_THROW(ship_snapshot((dir_ / "absent.snap").string(),
                             (dir_ / "dest").string(), "tenant-a"),
               std::exception);
  EXPECT_THROW(corrupt_snapshot_byte((dir_ / "absent.snap").string(), 0),
               std::exception);
  const auto empty = (dir_ / "empty.snap").string();
  { std::ofstream os(empty, std::ios::binary); }
  EXPECT_THROW(corrupt_snapshot_byte(empty, 0), std::exception);
}

TEST_F(BootstrapTest, ShipRefusesAnIdTheStoreWouldRefuse) {
  // The shipped file is named by the store's own rule, so an id with a path
  // separator is refused before anything is written, inside or outside
  // the destination.
  const auto source = (dir_ / "source" / "tenant-a.snap").string();
  { std::ofstream os(source, std::ios::binary); os << "snapshot bytes"; }
  EXPECT_THROW(ship_snapshot(source, (dir_ / "dest").string(), "../escaped"),
               std::invalid_argument);
  EXPECT_THROW(ship_snapshot(source, (dir_ / "dest").string(),
                             std::string(65, 'a')),
               std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "escaped.snap"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "escaped.snap.tmp"));
  EXPECT_TRUE(std::filesystem::is_empty(dir_ / "dest"));
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 2u);  // source/ and dest/ only
}

TEST_F(BootstrapTest, WaitReadyTracksTheHydrationStateMachine) {
  const auto inst =
      knapsack::make_family(knapsack::Family::kUncorrelated, 3'000, 5);
  const oracle::MaterializedAccess access(inst);
  const core::LcaKp lca(access, tenant_config());

  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  net::TenantRouter router(store, registry);
  net::TenantConfig tenant;
  tenant.lca = &lca;
  tenant.engine.workers = 1;
  router.register_tenant("alpha", tenant);
  net::Server server(router, {}, registry);

  // Registered but cold: the probe answers "not warm" instantly, and
  // wait_ready times out on the virtual clock without a real-time stall.
  util::VirtualClock clock;
  EXPECT_FALSE(wait_ready("127.0.0.1", server.port(), {"alpha"},
                          /*timeout_us=*/200'000, clock));
  // An unregistered tenant can never report warm either.
  EXPECT_FALSE(wait_ready("127.0.0.1", server.port(), {"ghost"},
                          /*timeout_us=*/200'000, clock));

  router.warm_all();
  EXPECT_TRUE(wait_ready("127.0.0.1", server.port(), {"alpha"},
                         /*timeout_us=*/1'000'000, clock));
  server.stop();
  // A dead port is "not ready yet" until the deadline, then false — a
  // ConnectionLost is an expected early-bootstrap state, not an error.
  EXPECT_FALSE(wait_ready("127.0.0.1", server.port(), {"alpha"},
                          /*timeout_us=*/200'000, clock));
  router.drain();
}

}  // namespace
}  // namespace lcaknap::fleet
