#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/virtual_clock.h"

/// \file test_engine_callback.cpp
/// Regression tests for the two serve-layer contracts the network front-end
/// (src/net/) depends on:
///   1. the non-blocking `submit(item, callback)` completion path fires each
///      callback exactly once and keeps the conservation law (submitted ==
///      ok + overloaded + deadline + degraded + errors) and every outcome
///      counter identical to the future path;
///   2. deadlines are semantic time on the engine's injected `util::Clock`,
///      so a `VirtualClock` makes deadline shedding deterministic — a
///      request expires exactly when the test says it does, never because
///      the CI machine stalled.

namespace lcaknap::serve {
namespace {

using namespace std::chrono_literals;

class EngineCallbackTest : public ::testing::Test {
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

const knapsack::Instance* EngineCallbackTest::instance_ = nullptr;
const oracle::MaterializedAccess* EngineCallbackTest::access_ = nullptr;
const core::LcaKp* EngineCallbackTest::lca_ = nullptr;

/// Gathers callback completions from any engine thread and lets the test
/// block until all expected completions arrived (drain() also guarantees
/// this, but the collector keeps assertions independent of drain ordering).
class Collector {
 public:
  void expect(std::size_t n) { expected_ = n; }
  CompletionCallback callback() {
    return [this](const Response& response) {
      std::lock_guard<std::mutex> lock(mutex_);
      responses_.push_back(response);
      if (responses_.size() >= expected_) cv_.notify_all();
    };
  }
  std::vector<Response> wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return responses_.size() >= expected_; });
    return responses_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Response> responses_;
  std::size_t expected_ = 0;
};

TEST_F(EngineCallbackTest, CallbackPathAnswersMatchDirectEvaluation) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  constexpr std::size_t kItems = 300;
  std::vector<std::atomic<int>> fired(kItems);
  // Callbacks run on several workers at once, so each slot is its own atomic
  // (a std::vector<bool> packs slots into shared words: a data race).
  std::vector<std::atomic<bool>> answers(kItems);
  Collector collector;
  collector.expect(kItems);
  for (std::size_t item = 0; item < kItems; ++item) {
    engine.submit(item, [&, item](const Response& response) {
      fired[item].fetch_add(1, std::memory_order_relaxed);
      answers[item].store(response.answer, std::memory_order_relaxed);
      EXPECT_EQ(response.outcome, Outcome::kOk);
      collector.callback()(response);
    });
  }
  (void)collector.wait();
  engine.drain();
  for (std::size_t item = 0; item < kItems; ++item) {
    EXPECT_EQ(fired[item].load(), 1) << "callback fired != once for " << item;
    EXPECT_EQ(answers[item].load(), lca_->answer_from(engine.run(), item))
        << "item " << item;
  }
}

TEST_F(EngineCallbackTest, ConservationLawHoldsOnTheCallbackPath) {
  metrics::Registry registry;
  auto config = fast_config();
  config.queue_capacity = 8;  // small enough to provoke kOverloaded
  ServeEngine engine(*lca_, config, registry);
  constexpr std::size_t kTotal = 5'000;
  std::atomic<std::uint64_t> fired{0};
  for (std::size_t q = 0; q < kTotal; ++q) {
    engine.submit(q % 64, [&](const Response&) {
      fired.fetch_add(1, std::memory_order_relaxed);
    });
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(fired.load(), kTotal) << "every callback fires exactly once";
  EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                 stats.deadline_exceeded + stats.degraded +
                                 stats.errors);
  // The registry counters must agree with the atomic stats — the callback
  // path routes through the same finish() accounting as the future path.
  EXPECT_EQ(registry.counter_value("serve_requests_total", {{"outcome", "ok"}}),
            stats.ok);
  EXPECT_EQ(registry.counter_value("serve_requests_total",
                                   {{"outcome", "overloaded"}}),
            stats.overloaded);
}

TEST_F(EngineCallbackTest, ThrowingCallbackIsSwallowedAndStillCounted) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  constexpr std::size_t kTotal = 64;
  std::atomic<std::uint64_t> fired{0};
  for (std::size_t q = 0; q < kTotal; ++q) {
    engine.submit(q, [&](const Response&) {
      fired.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("hostile callback");
    });
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(fired.load(), kTotal);
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                 stats.deadline_exceeded + stats.degraded +
                                 stats.errors);
}

TEST_F(EngineCallbackTest, VirtualClockDeadlinesShedDeterministically) {
  metrics::Registry registry;
  util::VirtualClock clock;
  auto config = fast_config();
  config.clock = &clock;
  ServeEngine engine(*lca_, config, registry);

  // Past deadline on the virtual clock: shed, deterministically, no sleeps.
  clock.advance_us(1'000);
  Collector shed;
  shed.expect(1);
  engine.submit(7, -1us, shed.callback());
  const auto shed_responses = shed.wait();
  ASSERT_EQ(shed_responses.size(), 1u);
  EXPECT_EQ(shed_responses[0].outcome, Outcome::kDeadlineExceeded);

  // Generous deadline on a clock that never advances again: served, always.
  // On the wall clock this would be a race; on the virtual clock it is not.
  Collector served;
  served.expect(1);
  engine.submit(7, 50us, served.callback());
  const auto ok_responses = served.wait();
  ASSERT_EQ(ok_responses.size(), 1u);
  EXPECT_EQ(ok_responses[0].outcome, Outcome::kOk);
  EXPECT_EQ(ok_responses[0].answer, lca_->answer_from(engine.run(), 7));

  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

TEST_F(EngineCallbackTest, FuturePathDeadlinesAlsoUseTheInjectedClock) {
  metrics::Registry registry;
  util::VirtualClock clock;
  auto config = fast_config();
  config.clock = &clock;
  ServeEngine engine(*lca_, config, registry);
  // 10 ms of virtual headroom never elapses: the future path must serve.
  auto future = engine.submit(3, 10'000us);
  const auto response = future.get();
  EXPECT_EQ(response.outcome, Outcome::kOk);
  // And a deadline strictly in the virtual past must shed.
  clock.advance_us(5);
  auto doomed = engine.submit(3, -1us);
  EXPECT_EQ(doomed.get().outcome, Outcome::kDeadlineExceeded);
}

}  // namespace
}  // namespace lcaknap::serve
