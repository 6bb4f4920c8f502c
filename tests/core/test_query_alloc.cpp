#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "core/batch_eval.h"
#include "core/lca_kp.h"
#include "dyn/epoch_state.h"
#include "dyn/update.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "serve/request.h"

/// Counting-allocator pin for the allocation-lean hot path: once the warm-up
/// has produced the membership rule, answering a query (`answer_from` =
/// one oracle read + `decide`) must perform ZERO heap allocations — the
/// steady-state request path of the serving engine touches only the shared
/// read-only run state.  The batch path (`BatchEval::evaluate`) makes the
/// same promise once its scratch has reached its high-water size.  The global operator new below counts every
/// allocation in this binary, and the bytes each one requests, which is why
/// this file is its own test executable (see tests/CMakeLists.txt) and stays
/// away from the other suites.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void count_allocation(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation(size);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lcaknap::core {
namespace {

TEST(QueryAllocation, SteadyStateAnswerFromAllocatesNothing) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 10'000, 41);
  const oracle::MaterializedAccess access(inst);
  LcaKpConfig config;
  config.eps = 0.25;
  config.seed = 0xABCD;
  config.quantile_samples = 60'000;
  const LcaKp lca(access, config);
  const auto run = lca.run_warmup(7, 1);

  // Touch the path once first so lazy one-time work (none expected) cannot
  // masquerade as per-query allocation.
  volatile bool sink = lca.answer_from(run, 0);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < 10'000; ++i) {
    sink = sink ^ lca.answer_from(run, i % inst.size());
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "answer_from allocated on the hot path";
}

TEST(QueryAllocation, DecideAllocatesNothing) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 5'000, 3);
  const oracle::MaterializedAccess access(inst);
  LcaKpConfig config;
  config.eps = 0.2;
  config.quantile_samples = 40'000;
  const LcaKp lca(access, config);
  const auto run = lca.run_warmup(11, 1);

  volatile bool sink = lca.decide(run, 0, 0.5, 1.0);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < 10'000; ++i) {
    sink = sink ^ lca.decide(run, i, 1e-4, 0.75);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "decide allocated on the hot path";
}

TEST(QueryAllocation, SteadyStateBatchPathAllocatesNothing) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 5'000, 9);
  const oracle::MaterializedAccess access(inst);
  LcaKpConfig config;
  config.eps = 0.2;
  config.quantile_samples = 40'000;
  const LcaKp lca(access, config);
  const auto run = lca.run_warmup(5, 1);
  const BatchEval eval(lca, run);

  constexpr std::size_t kLanes = 64;
  std::vector<std::size_t> items(kLanes);
  BatchScratch scratch;
  // One warm-up batch grows the scratch columns to their high-water size.
  for (std::size_t l = 0; l < kLanes; ++l) items[l] = l;
  eval.evaluate(items, scratch);

  volatile std::uint8_t sink = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t round = 1; round <= 200; ++round) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      items[l] = (round * kLanes + l * 7) % inst.size();
    }
    eval.evaluate(items, scratch);
    sink = sink ^ scratch.answers[round % kLanes];
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "BatchEval::evaluate allocated on the hot path";
}

TEST(QueryAllocation, WarmupBytesDoNotGrowWithQuantileSamples) {
  // Step 2 reads its thresholds off one count per grid cell, so an untraced
  // warm-up's working space is O(shards x |X|), whatever the sample budget.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 10'000, 41);
  const oracle::MaterializedAccess access(inst);
  const auto warmup_bytes = [&access](std::size_t quantile_samples) {
    LcaKpConfig config;
    config.eps = 0.25;
    config.seed = 0xABCD;
    config.quantile_samples = quantile_samples;
    const LcaKp lca(access, config);
    const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
    const auto run = lca.run_warmup(7, 1);
    const std::uint64_t after = g_bytes.load(std::memory_order_relaxed);
    EXPECT_EQ(run.samples_used, config.quantile_samples + lca.params().large_samples);
    return after - before;
  };
  const std::uint64_t small = warmup_bytes(60'000);
  const std::uint64_t large = warmup_bytes(600'000);
  EXPECT_LT(large, small + 64 * 1024)
      << "60k samples requested " << small << " B, 600k requested " << large << " B";
}

TEST(QueryAllocation, CallbackPathRequestAllocatesNothing) {
  // The engine builds one serve::Request per submit.  It carries only its
  // completion callback, and a callback that captures one pointer fits
  // std::function's small buffer.
  int completed = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    serve::Request request;
    request.item = 3;
    request.callback = [&completed](const serve::Response&) { ++completed; };
    request.callback(serve::Response{});
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "a callback-path request allocated";
  EXPECT_EQ(completed, 1);
}

TEST(QueryAllocation, EnginePathAllocationsPerRequestArePinned) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 5'000, 9);
  const oracle::MaterializedAccess access(inst);
  LcaKpConfig config;
  config.eps = 0.2;
  config.quantile_samples = 40'000;
  const LcaKp lca(access, config);
  metrics::Registry registry;
  serve::EngineConfig engine_config;
  engine_config.workers = 1;
  engine_config.warmup_threads = 1;
  // One full shard: after the first 64 items every miss evicts one entry,
  // so the cache neither grows nor rehashes while the count runs.
  engine_config.cache.capacity = 64;
  engine_config.cache.shards = 1;
  serve::ServeEngine engine(lca, engine_config, registry);

  struct Done {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t count = 0;
  } done;
  // Lone callback-path requests: each is submitted after the previous one
  // completed, so every request is its own sweep, batch and group.
  const auto ask = [&engine, &done](std::size_t item) {
    std::unique_lock<std::mutex> lock(done.mutex);
    const std::size_t target = done.count + 1;
    lock.unlock();
    engine.submit(item, [d = &done](const serve::Response&) {
      const std::lock_guard<std::mutex> guard(d->mutex);
      ++d->count;
      d->cv.notify_one();
    });
    lock.lock();
    done.cv.wait(lock, [&] { return done.count >= target; });
  };
  for (std::size_t item = 0; item < 64; ++item) ask(item);

  // Each request below misses the cache, reads the oracle once and evicts
  // one entry.  The worker's scratch serves every evaluation, and the
  // cache's batch calls sort in a reused per-thread buffer.  What is left
  // is 2 in the batcher (the open batch's map node and request vector) and
  // 2 in the cache (the insert's LRU list node and index node).
  constexpr std::size_t kRequests = 1'000;
  constexpr std::uint64_t kPerRequest = 4;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t q = 0; q < kRequests; ++q) ask(64 + q);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LE(after - before, kPerRequest * kRequests)
      << (after - before) << " allocations for " << kRequests << " requests";
  engine.drain();
  EXPECT_EQ(engine.stats().ok, 64 + kRequests);
}

TEST(QueryAllocation, DeltaAdvanceBytesDoNotGrowWithN) {
  // A delta epoch shares the base epoch's alias table and every instance
  // chunk its batch does not touch, so one advance of a fixed batch requests
  // bytes for what the batch changed plus the replay's fixed working set.
  // The one term left that grows with n is the chunk table (one shared
  // pointer per Instance::kChunkItems items); a copied instance, profit
  // vector and alias table would make it grow tenfold.
  const auto advance_bytes = [](std::size_t n) {
    dyn::EpochConfig config;
    config.lca.eps = 0.25;
    config.lca.quantile_samples = 20'000;
    config.tape_seed = 3;
    config.warmup_threads = 1;
    metrics::Registry registry;
    dyn::EpochedState state(
        knapsack::make_family(knapsack::Family::kUncorrelated, n, 8), config,
        registry);
    const knapsack::Instance& base = *state.current()->instance;
    dyn::UpdateBatch batch;
    batch.epoch_id = 1;
    for (std::size_t k = 0; k < 32; ++k) {
      const std::size_t index = k * 311;
      batch.mutations.push_back({dyn::MutationKind::kWeightUpdate, index, 0,
                                 base.item(index + 1).weight});
    }
    const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
    const dyn::AdvanceReport report = state.advance(batch);
    const std::uint64_t after = g_bytes.load(std::memory_order_relaxed);
    EXPECT_TRUE(report.delta) << report.reason;
    return after - before;
  };
  const std::uint64_t small = advance_bytes(20'000);
  const std::uint64_t large = advance_bytes(200'000);
  EXPECT_LT(large, 3 * small)
      << "n = 20k requested " << small << " B, n = 200k requested " << large << " B";
}

TEST(QueryAllocation, CounterSeesAllocations) {
  // Sanity: the override is actually installed in this binary.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto* p = new std::uint64_t(42);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  delete p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace lcaknap::core
