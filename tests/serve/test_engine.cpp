#include "serve/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/lca_kp.h"
#include "fault/chaos.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "util/virtual_clock.h"

namespace lcaknap::serve {
namespace {

using namespace std::chrono_literals;

/// Shared warm substrate: one instance + LCA for every engine under test
/// (the pipeline run each engine executes at construction stays cheap).
class EngineTest : public ::testing::Test {
 public:
  static const oracle::MaterializedAccess* shared_access() { return access_; }

 protected:
  static void SetUpTestSuite() {
    instance_ = new knapsack::Instance(
        knapsack::make_family(knapsack::Family::kNeedle, 2'000, 17));
    access_ = new oracle::MaterializedAccess(*instance_);
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    lca_ = new core::LcaKp(*access_, config);
  }
  static void TearDownTestSuite() {
    delete lca_;
    delete access_;
    delete instance_;
    lca_ = nullptr;
    access_ = nullptr;
    instance_ = nullptr;
  }

  static EngineConfig fast_config() {
    EngineConfig config;
    config.workers = 3;
    config.queue_capacity = 4'096;
    config.batcher.max_batch_size = 16;
    config.batcher.max_linger = 100us;
    config.cache.capacity = 1'024;
    config.cache.shards = 4;
    return config;
  }

  static const knapsack::Instance* instance_;
  static const oracle::MaterializedAccess* access_;
  static const core::LcaKp* lca_;
};

const knapsack::Instance* EngineTest::instance_ = nullptr;
const oracle::MaterializedAccess* EngineTest::access_ = nullptr;
const core::LcaKp* EngineTest::lca_ = nullptr;

/// Oracle decorator that, once armed, holds every read until the test
/// releases it, so a test can keep a request in flight for as long as it
/// needs.  It starts disarmed so the engine's warm-up runs through.
class GatedAccess final : public oracle::InstanceAccess {
 public:
  explicit GatedAccess(const oracle::InstanceAccess& inner) : inner_(&inner) {}

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

  void arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
    cv_.notify_all();
  }
  /// Blocks until `readers` reads are held at the gate; false if that takes
  /// longer than 10 s.
  [[nodiscard]] bool wait_for_held(std::size_t readers) const {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, 10s, [&] { return held_ >= readers; });
  }

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override {
    hold();
    return inner_->query(i);
  }
  [[nodiscard]] oracle::WeightedDraw do_sample(
      util::Xoshiro256& rng) const override {
    hold();
    return inner_->weighted_sample(rng);
  }

 private:
  void hold() const {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!armed_) return;
    ++held_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !armed_; });
    --held_;
  }

  const oracle::InstanceAccess* inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool armed_ = false;
  mutable std::size_t held_ = 0;
};

/// An engine whose oracle reads pass through a `GatedAccess`.
struct GatedEngine {
  GatedEngine(const EngineConfig& engine_config, metrics::Registry& registry)
      : gate(*EngineTest::shared_access()) {
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    lca = std::make_unique<core::LcaKp>(gate, config);
    engine = std::make_unique<ServeEngine>(*lca, engine_config, registry);
  }
  /// Opens the gate first, so a failed assertion cannot leave the engine's
  /// drain waiting on a held read.
  ~GatedEngine() { gate.release(); }

  GatedAccess gate;
  std::unique_ptr<core::LcaKp> lca;
  std::unique_ptr<ServeEngine> engine;
};

TEST_F(EngineTest, AnswersMatchDirectEvaluation) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  std::vector<std::future<Response>> futures;
  for (std::size_t item = 0; item < 300; ++item) {
    futures.push_back(engine.submit(item));
  }
  for (std::size_t item = 0; item < 300; ++item) {
    const auto response = futures[item].get();
    ASSERT_EQ(response.outcome, Outcome::kOk);
    EXPECT_EQ(response.answer, lca_->answer_from(engine.run(), item))
        << "item " << item;
  }
}

TEST_F(EngineTest, HotTrafficHitsTheCacheAndBatches) {
  metrics::Registry registry;
  GatedEngine gated(fast_config(), registry);
  auto& engine = *gated.engine;
  constexpr std::size_t kHot = 13;
  constexpr std::size_t kRepeats = 2'000;
  std::vector<std::future<Response>> futures;
  futures.reserve(kRepeats);
  // The first request, alone in the engine, leaves at once and is held in
  // its oracle read; every later one arrives while it is in flight, so the
  // batcher groups them whatever the thread timing.
  gated.gate.arm();
  futures.push_back(engine.submit(kHot));
  ASSERT_TRUE(gated.gate.wait_for_held(1));
  for (std::size_t q = 1; q < kRepeats; ++q) {
    futures.push_back(engine.submit(kHot));
  }
  gated.gate.release();
  const bool expected = gated.lca->answer_from(engine.run(), kHot);
  std::size_t hits = 0;
  for (auto& future : futures) {
    const auto response = future.get();
    ASSERT_EQ(response.outcome, Outcome::kOk);
    EXPECT_EQ(response.answer, expected);
    hits += response.cache_hit ? 1 : 0;
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, kRepeats);
  EXPECT_EQ(stats.ok, kRepeats);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(hits, 0u);
  // Batching collapses duplicate hot-key requests: strictly fewer batches
  // (and evaluations) than requests.
  EXPECT_LT(stats.batches, kRepeats);
  EXPECT_EQ(stats.batched_requests, kRepeats);
  EXPECT_EQ(registry.counter_value("serve_requests_total", {{"outcome", "ok"}}),
            kRepeats);
}

TEST_F(EngineTest, LoneRequestsDoNotWaitOutTheLinger) {
  metrics::Registry registry;
  auto config = fast_config();
  config.batcher.max_linger = 200ms;
  ServeEngine engine(*lca_, config, registry);
  constexpr std::size_t kRequests = 20;
  for (std::size_t item = 0; item < kRequests; ++item) {
    const auto response = engine.submit_wait(item);
    ASSERT_EQ(response.outcome, Outcome::kOk);
    EXPECT_EQ(response.answer, lca_->answer_from(engine.run(), item));
  }
  // A caller alone in the engine has nobody to batch with: every request
  // leaves in its own batch as soon as the dispatcher sees it, well inside
  // the 200 ms linger.  Each observation must land in a latency bucket
  // that ends at or below 100 ms.
  engine.drain();
  EXPECT_EQ(engine.stats().batches, kRequests);
  const auto snapshot = registry.snapshot();
  const metrics::Snapshot::HistogramSample* latency = nullptr;
  for (const auto& hist : snapshot.histograms) {
    if (hist.name == "serve_request_latency_us") latency = &hist;
  }
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, kRequests);
  std::uint64_t within_100ms = 0;
  for (std::size_t b = 0; b < latency->upper_bounds.size() &&
                          latency->upper_bounds[b] <= 100'000.0;
       ++b) {
    within_100ms += latency->bucket_counts[b];
  }
  EXPECT_EQ(within_100ms, kRequests);
}

TEST_F(EngineTest, RequestsLingerWhileAnotherIsInFlight) {
  metrics::Registry registry;
  auto config = fast_config();
  config.batcher.max_linger = 200ms;
  GatedEngine gated(config, registry);
  auto& engine = *gated.engine;
  constexpr std::size_t kX = 3;
  constexpr std::size_t kY = 11;
  gated.gate.arm();
  // A is alone, so it leaves at once and is held in its oracle read.
  auto a = engine.submit(kX);
  ASSERT_TRUE(gated.gate.wait_for_held(1));
  // B1 and B2 arrive while A is unfinished: they linger and share a batch.
  auto b1 = engine.submit(kY);
  auto b2 = engine.submit(kY);
  gated.gate.release();
  const auto ra = a.get();
  const auto rb1 = b1.get();
  const auto rb2 = b2.get();
  ASSERT_EQ(ra.outcome, Outcome::kOk);
  ASSERT_EQ(rb1.outcome, Outcome::kOk);
  ASSERT_EQ(rb2.outcome, Outcome::kOk);
  EXPECT_EQ(ra.answer, gated.lca->answer_from(engine.run(), kX));
  EXPECT_EQ(rb1.answer, gated.lca->answer_from(engine.run(), kY));
  EXPECT_EQ(rb2.answer, rb1.answer);
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batched_requests, 3u);
}

TEST_F(EngineTest, SweptGroupsRunOnSeparateWorkers) {
  metrics::Registry registry;
  auto config = fast_config();
  config.workers = 3;
  GatedEngine gated(config, registry);
  auto& engine = *gated.engine;
  gated.gate.arm();
  // A sweep that closes several batches keeps one group and hands the rest
  // to idle workers, so three distinct items are read at the same time.
  auto a = engine.submit(3);
  auto b = engine.submit(11);
  auto c = engine.submit(19);
  ASSERT_TRUE(gated.gate.wait_for_held(3));
  gated.gate.release();
  EXPECT_EQ(a.get().outcome, Outcome::kOk);
  EXPECT_EQ(b.get().outcome, Outcome::kOk);
  EXPECT_EQ(c.get().outcome, Outcome::kOk);
}

TEST_F(EngineTest, BusyWorkersBoundTheBacklog) {
  metrics::Registry registry;
  auto config = fast_config();
  config.workers = 1;
  config.queue_capacity = 2;
  GatedEngine gated(config, registry);
  auto& engine = *gated.engine;
  gated.gate.arm();
  // A holds the only worker in its oracle read.
  auto a = engine.submit(3);
  ASSERT_TRUE(gated.gate.wait_for_held(1));
  // Nobody takes requests out of the queue while every worker is busy, so
  // it admits two and refuses the rest at once.  The pauses give any thread
  // that drains the queue the time to do so; the bound must hold anyway.
  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 10; ++q) {
    futures.push_back(engine.submit(20 + q));
    std::this_thread::sleep_for(1ms);
  }
  std::size_t admitted = 0;
  for (auto& future : futures) {
    if (future.wait_for(0s) != std::future_status::ready) {
      ++admitted;
      continue;
    }
    EXPECT_EQ(future.get().outcome, Outcome::kOverloaded);
  }
  EXPECT_EQ(admitted, 2u);
  gated.gate.release();
  EXPECT_EQ(a.get().outcome, Outcome::kOk);
  for (auto& future : futures) {
    if (future.valid()) {
      EXPECT_EQ(future.get().outcome, Outcome::kOk);
    }
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 11u);
  EXPECT_EQ(stats.overloaded, 8u);
  EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded);
}

TEST_F(EngineTest, DrainLeavesNoLostRequests) {
  metrics::Registry registry;
  auto config = fast_config();
  // Leave batches open when drain hits.  The first request, alone in the
  // engine, leaves at once; the ones behind it linger.
  config.batcher.max_linger = 5ms;
  ServeEngine engine(*lca_, config, registry);
  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 500; ++q) {
    futures.push_back(engine.submit(q % 50));
  }
  engine.drain();
  std::size_t answered = 0;
  for (auto& future : futures) {
    // Every future must be ready after drain — no request is lost.
    ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
    const auto response = future.get();
    answered += response.outcome == Outcome::kOk ? 1 : 0;
  }
  EXPECT_EQ(answered, 500u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                 stats.deadline_exceeded + stats.degraded +
                                 stats.errors);
}

TEST_F(EngineTest, SubmitAfterDrainIsRejectedOverloaded) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  engine.drain();
  const auto response = engine.submit_wait(1);
  EXPECT_EQ(response.outcome, Outcome::kOverloaded);
  EXPECT_EQ(engine.stats().overloaded, 1u);
  EXPECT_EQ(
      registry.counter_value("serve_requests_total", {{"outcome", "overloaded"}}),
      1u);
}

TEST_F(EngineTest, ExpiredDeadlinesAreShed) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  // A zero deadline has already passed by dispatch time.
  const auto response = engine.submit(3, 0us).get();
  EXPECT_EQ(response.outcome, Outcome::kDeadlineExceeded);
  engine.drain();
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
  EXPECT_EQ(
      registry.counter_value("serve_requests_total", {{"outcome", "deadline"}}),
      1u);
}

TEST_F(EngineTest, DefaultDeadlineAppliesToPlainSubmit) {
  metrics::Registry registry;
  auto config = fast_config();
  config.default_deadline = -1us;  // negative: expired at submission
  ServeEngine engine(*lca_, config, registry);
  const auto response = engine.submit_wait(5);
  EXPECT_EQ(response.outcome, Outcome::kDeadlineExceeded);
}

TEST_F(EngineTest, ParanoiaModeVerifiesHitsWithoutViolations) {
  metrics::Registry registry;
  auto config = fast_config();
  config.cache.paranoia_every = 1;  // recheck every hit
  ServeEngine engine(*lca_, config, registry);
  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 400; ++q) {
    futures.push_back(engine.submit(q % 8));
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.get().outcome, Outcome::kOk);
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_GT(stats.paranoia_checks, 0u);
  // Definition 2.3: re-evaluation can never disagree with the cache.
  EXPECT_EQ(stats.paranoia_violations, 0u);
  EXPECT_EQ(
      registry.counter_value("serve_cache_paranoia_violations_total"), 0u);
}

TEST_F(EngineTest, EvaluationFailureYieldsErrorOutcome) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  // Out-of-range item: the oracle read throws, the engine answers kError
  // instead of crashing a worker.
  const auto response = engine.submit_wait(instance_->size() + 10);
  EXPECT_EQ(response.outcome, Outcome::kError);
  // The engine stays healthy afterwards.
  EXPECT_EQ(engine.submit_wait(0).outcome, Outcome::kOk);
  engine.drain();
  EXPECT_EQ(engine.stats().errors, 1u);
  EXPECT_EQ(registry.counter_value("serve_requests_total", {{"outcome", "error"}}),
            1u);
}

/// Builds an engine whose oracle path runs through a ChaosAccess over the
/// shared storage.  The chaos layer starts disarmed so the engine's one-time
/// warm-up (Theorem 4.1) sees a healthy oracle; tests arm it afterwards.
struct ChaoticEngine {
  ChaoticEngine(fault::FaultPlan plan, const EngineConfig& engine_config,
                metrics::Registry& registry)
      : chaos(*EngineTest::shared_access(), std::move(plan), clock,
              /*armed=*/false, registry) {
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    lca = std::make_unique<core::LcaKp>(chaos, config);
    engine = std::make_unique<ServeEngine>(*lca, engine_config, registry);
  }

  static fault::FaultPlan dead_oracle_plan() {
    fault::FaultPhase down;
    down.label = "down";
    down.duration_us = 0;  // hold forever
    down.fail_rate = 1.0;
    return fault::FaultPlan({down}, /*seed=*/0xD0A);
  }

  util::VirtualClock clock;
  fault::ChaosAccess chaos;
  std::unique_ptr<core::LcaKp> lca;
  std::unique_ptr<ServeEngine> engine;
};

TEST_F(EngineTest, DegradedModeAnswersThroughAnOutage) {
  metrics::Registry registry;
  auto config = fast_config();
  config.degrade = true;
  ChaoticEngine chaotic(ChaoticEngine::dead_oracle_plan(), config, registry);
  auto& engine = *chaotic.engine;
  chaotic.chaos.arm();  // the oracle goes down hard after warm-up

  for (std::size_t item = 100; item < 140; ++item) {
    const auto response = engine.submit_wait(item);
    ASSERT_EQ(response.outcome, Outcome::kDegraded) << "item " << item;
    // The documented fallback rule: membership in the warm run's large-item
    // index, "no" for the small tail — still deterministic per (seed, item).
    EXPECT_EQ(response.answer, engine.run().index_large.contains(item));
  }

  // Degraded answers are never cached: once the oracle recovers, the same
  // items are re-evaluated at full LCA quality instead of served stale.
  chaotic.chaos.disarm();
  for (std::size_t item = 100; item < 140; ++item) {
    const auto response = engine.submit_wait(item);
    ASSERT_EQ(response.outcome, Outcome::kOk);
    EXPECT_EQ(response.answer, chaotic.lca->answer_from(engine.run(), item));
  }

  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.degraded, 40u);
  EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                 stats.deadline_exceeded + stats.degraded +
                                 stats.errors);
  EXPECT_EQ(
      registry.counter_value("serve_requests_total", {{"outcome", "degraded"}}),
      40u);
}

TEST_F(EngineTest, DrainUnderPersistentOracleFailureTerminatesEveryRequest) {
  metrics::Registry registry;
  ServeEngine* engine_ptr = nullptr;
  {
    auto config = fast_config();
    // Leave batches open when drain hits.  The first request, alone in the
    // engine, leaves at once; the ones behind it linger.
    config.batcher.max_linger = 5ms;
    ChaoticEngine chaotic(ChaoticEngine::dead_oracle_plan(), config, registry);
    auto& engine = *chaotic.engine;
    engine_ptr = &engine;
    chaotic.chaos.arm();

    std::vector<std::future<Response>> futures;
    futures.reserve(600);
    for (std::size_t q = 0; q < 600; ++q) {
      futures.push_back(engine.submit(q % 120));
    }
    engine.drain();  // must not hang against a dead oracle

    std::size_t errors = 0;
    for (auto& future : futures) {
      // Every in-flight request reached a terminal outcome.
      ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
      errors += future.get().outcome == Outcome::kError ? 1 : 0;
    }
    EXPECT_GT(errors, 0u);  // degradation off: failures surface as kError

    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted, 600u);
    EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                   stats.deadline_exceeded + stats.degraded +
                                   stats.errors);
    EXPECT_EQ(stats.degraded, 0u);
  }
  (void)engine_ptr;  // destruction above re-drains; reaching here means no hang
}

TEST_F(EngineTest, ConcurrentSubmittersStayConsistent) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1'000;
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::pair<std::size_t, Response>>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&engine, &results, t] {
      results[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const auto item = static_cast<std::size_t>((t * 37 + i) % 200);
        results[t].emplace_back(item, engine.submit_wait(item));
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  engine.drain();
  for (const auto& per_thread : results) {
    for (const auto& [item, response] : per_thread) {
      ASSERT_EQ(response.outcome, Outcome::kOk);
      EXPECT_EQ(response.answer, lca_->answer_from(engine.run(), item));
    }
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.ok, stats.submitted);
}

}  // namespace
}  // namespace lcaknap::serve
