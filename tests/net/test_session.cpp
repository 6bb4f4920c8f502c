#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "net/session.h"
#include "oracle/access.h"
#include "store/state_store.h"

/// \file test_session.cpp
/// The tenant-routing layer: warm_all() as the one way a tenant comes up,
/// one source of warm state per tenant, per-tenant admission quotas, typed
/// unknown-tenant and not-warm rejections, and the wire-level conservation
/// law (routed == completed, every status accounted) that the server and
/// the E20 bench build on.

namespace lcaknap::net {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    instance_a_ = new knapsack::Instance(
        knapsack::make_family(knapsack::Family::kNeedle, 2'000, 17));
    instance_b_ = new knapsack::Instance(
        knapsack::make_family(knapsack::Family::kUncorrelated, 1'500, 23));
    access_a_ = new oracle::MaterializedAccess(*instance_a_);
    access_b_ = new oracle::MaterializedAccess(*instance_b_);
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    lca_a_ = new core::LcaKp(*access_a_, config);
    config.seed = 0x6F;
    lca_b_ = new core::LcaKp(*access_b_, config);
  }
  static void TearDownTestSuite() {
    delete lca_b_;
    delete lca_a_;
    delete access_b_;
    delete access_a_;
    delete instance_b_;
    delete instance_a_;
    lca_a_ = lca_b_ = nullptr;
    access_a_ = access_b_ = nullptr;
    instance_a_ = instance_b_ = nullptr;
  }

  static TenantConfig tenant_config(const core::LcaKp* lca) {
    TenantConfig config;
    config.lca = lca;
    config.engine.workers = 2;
    config.engine.queue_capacity = 4'096;
    config.engine.batcher.max_batch_size = 16;
    config.engine.batcher.max_linger = std::chrono::microseconds(100);
    config.engine.cache.capacity = 1'024;
    config.engine.cache.shards = 4;
    return config;
  }

  static const knapsack::Instance* instance_a_;
  static const knapsack::Instance* instance_b_;
  static const oracle::MaterializedAccess* access_a_;
  static const oracle::MaterializedAccess* access_b_;
  static const core::LcaKp* lca_a_;
  static const core::LcaKp* lca_b_;
};

const knapsack::Instance* SessionTest::instance_a_ = nullptr;
const knapsack::Instance* SessionTest::instance_b_ = nullptr;
const oracle::MaterializedAccess* SessionTest::access_a_ = nullptr;
const oracle::MaterializedAccess* SessionTest::access_b_ = nullptr;
const core::LcaKp* SessionTest::lca_a_ = nullptr;
const core::LcaKp* SessionTest::lca_b_ = nullptr;

/// Collects responses from the router or any engine thread.
class Collector {
 public:
  std::function<void(const ResponseFrame&)> callback() {
    return [this](const ResponseFrame& response) {
      std::lock_guard<std::mutex> lock(mutex_);
      responses_.push_back(response);
      cv_.notify_all();
    };
  }
  std::vector<ResponseFrame> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return responses_.size() >= n; });
    return responses_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<ResponseFrame> responses_;
};

RequestFrame frame_for(const std::string& tenant, std::uint64_t id,
                       std::uint64_t item) {
  RequestFrame frame;
  frame.request_id = id;
  frame.item = item;
  frame.tenant = tenant;
  return frame;
}

TEST_F(SessionTest, ColdTenantIsAnsweredErrorUntilWarmAll) {
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  router.register_tenant("a", tenant_config(lca_a_));
  EXPECT_EQ(router.engine("a"), nullptr) << "registration must stay cold";

  // Before warm_all(): every frame is answered kError at once, on this
  // thread, and traffic starts no warm-up.
  constexpr std::size_t kQueries = 200;
  Collector cold;
  for (std::size_t q = 0; q < kQueries; ++q) {
    router.route(frame_for("a", q, q % 500), cold.callback());
  }
  EXPECT_EQ(router.stats().completed, kQueries) << "answered at once";
  for (const auto& response : cold.wait_for(kQueries)) {
    EXPECT_EQ(response.status, WireStatus::kError);
  }
  EXPECT_EQ(router.stats().hydrations, 0u);
  EXPECT_EQ(store.stats().misses, 0u);
  EXPECT_EQ(router.readiness("a"), TenantReadiness::kCold);
  EXPECT_EQ(router.engine("a"), nullptr);

  // After warm_all(): the same frames are served, each answer equal to
  // answer_from on the engine's run.
  router.warm_all();
  Collector warm;
  for (std::size_t q = 0; q < kQueries; ++q) {
    router.route(frame_for("a", q, q % 500), warm.callback());
  }
  const auto responses = warm.wait_for(kQueries);
  router.drain();

  ASSERT_NE(router.engine("a"), nullptr);
  const auto& run = router.engine("a")->run();
  std::vector<bool> seen(kQueries, false);
  for (const auto& response : responses) {
    ASSERT_LT(response.request_id, kQueries);
    EXPECT_FALSE(seen[response.request_id]) << "duplicate completion";
    seen[response.request_id] = true;
    EXPECT_EQ(response.status, WireStatus::kOk);
    EXPECT_EQ(response.answer,
              lca_a_->answer_from(run, response.request_id % 500));
  }
  const auto stats = router.stats();
  EXPECT_EQ(stats.routed, 2 * kQueries);
  EXPECT_EQ(stats.completed, 2 * kQueries);
  EXPECT_EQ(stats.hydrations, 1u);
  EXPECT_EQ(store.stats().live_warmups, 1u);
}

TEST_F(SessionTest, RegisteredWarmStateIsServedWithoutTheStore) {
  // One source of warm state per tenant: a run registered with the tenant
  // (an epoched tenant's epoch 0) is the run its engine serves, and the
  // store is never asked.
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  auto config = tenant_config(lca_a_);
  const auto registered = std::make_shared<const core::LcaKpRun>(
      lca_a_->run_warmup(config.tape_seed, 1));
  config.engine.warm_state = registered;
  router.register_tenant("a", config);
  router.warm_all();

  ASSERT_NE(router.engine("a"), nullptr);
  const auto& run = router.engine("a")->run();
  EXPECT_EQ(&run, registered.get()) << "the registered run itself";
  EXPECT_EQ(core::run_digest(run), core::run_digest(*registered));
  EXPECT_EQ(store.stats().misses, 0u);
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.size(), 0u);

  constexpr std::size_t kQueries = 100;
  Collector collector;
  for (std::size_t q = 0; q < kQueries; ++q) {
    router.route(frame_for("a", q, q), collector.callback());
  }
  for (const auto& response : collector.wait_for(kQueries)) {
    EXPECT_EQ(response.status, WireStatus::kOk);
    EXPECT_EQ(response.answer,
              lca_a_->answer_from(*registered, response.request_id));
  }
  router.drain();
}

TEST_F(SessionTest, UnknownTenantIsATypedInstantRejection) {
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  router.register_tenant("a", tenant_config(lca_a_));
  Collector collector;
  router.route(frame_for("ghost", 9, 0), collector.callback());
  const auto responses = collector.wait_for(1);
  EXPECT_EQ(responses[0].status, WireStatus::kUnknownTenant);
  EXPECT_EQ(responses[0].request_id, 9u);
  const auto stats = router.stats();
  EXPECT_EQ(stats.unknown_tenant, 1u);
  EXPECT_EQ(stats.routed, stats.completed);
  router.drain();
}

TEST_F(SessionTest, ZeroQuotaShedsEverythingOverloaded) {
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  auto config = tenant_config(lca_a_);
  config.max_inflight = 0;  // deterministic: every frame is over quota
  router.register_tenant("a", config);
  constexpr std::size_t kQueries = 50;
  Collector collector;
  for (std::size_t q = 0; q < kQueries; ++q) {
    router.route(frame_for("a", q, q), collector.callback());
  }
  const auto responses = collector.wait_for(kQueries);
  for (const auto& response : responses) {
    EXPECT_EQ(response.status, WireStatus::kOverloaded);
  }
  const auto stats = router.stats();
  EXPECT_EQ(stats.quota_shed, kQueries);
  EXPECT_EQ(stats.routed, stats.completed);
  router.drain();
}

TEST_F(SessionTest, WarmAllHydratesEveryTenantBeforeTraffic) {
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  router.register_tenant("a", tenant_config(lca_a_));
  router.register_tenant("b", tenant_config(lca_b_));
  router.warm_all();
  EXPECT_NE(router.engine("a"), nullptr);
  EXPECT_NE(router.engine("b"), nullptr);
  EXPECT_NE(router.engine("a"), router.engine("b"))
      << "tenants must not share an engine: isolation is structural";
  const auto stats = router.stats();
  EXPECT_EQ(stats.hydrations, 2u);
  double warm_gauge = -1.0;
  for (const auto& sample : registry.snapshot().gauges) {
    if (sample.name == "net_tenants_warm") warm_gauge = sample.value;
  }
  EXPECT_EQ(warm_gauge, 2.0);
  const auto ids = router.tenant_ids();
  EXPECT_EQ(ids.size(), 2u);
  router.drain();
}

TEST_F(SessionTest, TwoTenantsRouteToTheirOwnInstances) {
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  router.register_tenant("a", tenant_config(lca_a_));
  router.register_tenant("b", tenant_config(lca_b_));
  router.warm_all();

  constexpr std::size_t kEach = 100;
  Collector col_a;
  Collector col_b;
  for (std::size_t q = 0; q < kEach; ++q) {
    router.route(frame_for("a", q, q), col_a.callback());
    router.route(frame_for("b", q, q), col_b.callback());
  }
  const auto responses_a = col_a.wait_for(kEach);
  const auto responses_b = col_b.wait_for(kEach);
  router.drain();
  const auto& run_a = router.engine("a")->run();
  const auto& run_b = router.engine("b")->run();
  for (const auto& response : responses_a) {
    EXPECT_EQ(response.answer, lca_a_->answer_from(run_a, response.request_id));
  }
  for (const auto& response : responses_b) {
    EXPECT_EQ(response.answer, lca_b_->answer_from(run_b, response.request_id));
  }
}

TEST_F(SessionTest, ConservationHoldsAcrossMixedTraffic) {
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  router.register_tenant("a", tenant_config(lca_a_));
  router.warm_all();
  constexpr std::size_t kQueries = 3'000;
  std::atomic<std::uint64_t> fired{0};
  std::array<std::atomic<std::uint64_t>, 8> by_status{};
  for (std::size_t q = 0; q < kQueries; ++q) {
    // Every third frame targets a tenant that does not exist.
    const std::string tenant = (q % 3 == 0) ? "ghost" : "a";
    router.route(frame_for(tenant, q, q % 700),
                 [&](const ResponseFrame& response) {
                   fired.fetch_add(1, std::memory_order_relaxed);
                   by_status[static_cast<std::size_t>(response.status)]
                       .fetch_add(1, std::memory_order_relaxed);
                 });
  }
  router.drain();
  EXPECT_EQ(fired.load(), kQueries) << "every route() completes exactly once";
  std::uint64_t sum = 0;
  for (const auto& count : by_status) sum += count.load();
  EXPECT_EQ(sum, kQueries);
  const auto stats = router.stats();
  EXPECT_EQ(stats.routed, kQueries);
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_EQ(by_status[static_cast<std::size_t>(WireStatus::kUnknownTenant)]
                .load(),
            stats.unknown_tenant);
}

TEST_F(SessionTest, DrainShedsSubsequentTraffic) {
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  router.register_tenant("a", tenant_config(lca_a_));
  router.warm_all();
  router.drain();
  Collector collector;
  router.route(frame_for("a", 1, 1), collector.callback());
  const auto responses = collector.wait_for(1);
  EXPECT_EQ(responses[0].status, WireStatus::kOverloaded);
}

TEST_F(SessionTest, RegistrationValidatesItsArguments) {
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter router(store, registry);
  EXPECT_THROW(router.register_tenant("bad id", tenant_config(lca_a_)),
               std::invalid_argument);
  EXPECT_THROW(router.register_tenant("", tenant_config(lca_a_)),
               std::invalid_argument);
  TenantConfig null_lca;
  EXPECT_THROW(router.register_tenant("a", null_lca), std::invalid_argument);
  router.register_tenant("a", tenant_config(lca_a_));
  EXPECT_THROW(router.register_tenant("a", tenant_config(lca_a_)),
               std::invalid_argument);
  router.drain();
}

TEST_F(SessionTest, SharedStoreCoalescesWarmStateAcrossRouters) {
  // Two routers (two "servers" in one process) over one StateStore: the
  // second router's hydration is a store hit, not a second warm-up —
  // Lemma 4.9 makes the sharing sound.
  metrics::Registry registry;
  store::StateStore store({.capacity = 4}, registry);
  TenantRouter first(store, registry);
  first.register_tenant("a", tenant_config(lca_a_));
  first.warm_all();
  TenantRouter second(store, registry);
  second.register_tenant("a", tenant_config(lca_a_));
  second.warm_all();
  EXPECT_EQ(store.stats().live_warmups, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
  // Same warm state, bit for bit (Lemma 4.9: a pure function of the seed).
  EXPECT_EQ(core::run_digest(first.engine("a")->run()),
            core::run_digest(second.engine("a")->run()));
  first.drain();
  second.drain();
}

}  // namespace
}  // namespace lcaknap::net
