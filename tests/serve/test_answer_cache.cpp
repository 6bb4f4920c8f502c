#include "serve/answer_cache.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "metrics/metrics.h"

namespace lcaknap::serve {
namespace {

TEST(AnswerCache, MissThenHit) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  config.shards = 4;
  AnswerCache cache(config, registry);
  EXPECT_FALSE(cache.get(7).has_value());
  cache.put(7, true);
  const auto hit = cache.get(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->answer);
  EXPECT_FALSE(hit->paranoia_due);  // paranoia off by default
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_hits_total"), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_misses_total"), 1u);
}

TEST(AnswerCache, ShardCountRoundsUpToPowerOfTwo) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 64;
  config.shards = 5;
  const AnswerCache cache(config, registry);
  EXPECT_EQ(cache.shard_count(), 8u);
}

TEST(AnswerCache, ShardsNeverExceedCapacity) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 2;
  config.shards = 16;  // would leave 14 shards with zero entries
  const AnswerCache cache(config, registry);
  EXPECT_LE(cache.shard_count(), 2u);
}

TEST(AnswerCache, EvictsLeastRecentlyUsed) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 2;
  config.shards = 1;  // single shard so LRU order is global
  AnswerCache cache(config, registry);
  cache.put(1, true);
  cache.put(2, false);
  ASSERT_TRUE(cache.get(1).has_value());  // refresh 1; 2 is now LRU
  cache.put(3, true);                     // evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_evictions_total"), 1u);
}

TEST(AnswerCache, ZeroCapacityDisablesCaching) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 0;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AnswerCache, ParanoiaFlagsEveryNthHit) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 8;
  config.paranoia_every = 3;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  std::size_t due = 0;
  for (int i = 0; i < 9; ++i) {
    const auto hit = cache.get(1);
    ASSERT_TRUE(hit.has_value());
    due += hit->paranoia_due ? 1 : 0;
  }
  EXPECT_EQ(due, 3u);  // hits 3, 6, 9
}

TEST(AnswerCache, ParanoiaCountersTrackViolations) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  AnswerCache cache(config, registry);
  cache.record_paranoia(true);
  cache.record_paranoia(false);
  cache.record_paranoia(true);
  EXPECT_EQ(cache.paranoia_checks(), 3u);
  EXPECT_EQ(cache.paranoia_violations(), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_paranoia_checks_total"), 3u);
  EXPECT_EQ(registry.counter_value("serve_cache_paranoia_violations_total"), 1u);
}

TEST(AnswerCache, UpdatingAnExistingKeyDoesNotGrow) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 4;
  config.shards = 1;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  cache.put(1, false);
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->answer);
}

TEST(AnswerCache, ConcurrentMixedTrafficConservesCounters) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 256;
  config.shards = 8;
  AnswerCache cache(config, registry);
  constexpr int kThreads = 4;
  constexpr int kOps = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const auto item = static_cast<std::size_t>((t * kOps + i) % 512);
        if (!cache.get(item).has_value()) cache.put(item, item % 2 == 0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(cache.size(), 256u);
  // Cached answers are never corrupted by races.
  for (std::size_t item = 0; item < 512; ++item) {
    const auto hit = cache.get(item);
    if (hit.has_value()) EXPECT_EQ(hit->answer, item % 2 == 0);
  }
}

// ---------------------------------------------------------------------------
// Batch operations (the engine answer path's cache interface).
// ---------------------------------------------------------------------------

/// Drives the SAME operation sequence through the per-request API and the
/// batch API on two identically configured caches and pins every counter
/// equal: get_batch/put_batch are a locking optimization (one shard mutex
/// acquisition per batch), never a semantic change.
TEST(AnswerCache, BatchCountersEqualPerRequestPath) {
  AnswerCacheConfig config;
  config.capacity = 64;
  config.shards = 4;
  config.paranoia_every = 3;  // exercise the hit-number cadence too

  metrics::Registry reg_single, reg_batch;
  AnswerCache single(config, reg_single);
  AnswerCache batched(config, reg_batch);

  // Phase 1: warm both with the same entries, batch vs loop.
  std::vector<AnswerCache::PutItem> puts;
  for (std::size_t i = 0; i < 40; ++i) {
    const AnswerCache::Entry entry{i % 2 == 0, true, i % 3 == 0,
                                   static_cast<std::int64_t>(i),
                                   static_cast<std::int64_t>(2 * i)};
    single.put(i, entry);
    puts.push_back(AnswerCache::PutItem{i, entry});
  }
  batched.put_batch(puts);
  EXPECT_EQ(batched.size(), single.size());
  EXPECT_EQ(batched.evictions(), single.evictions());

  // Phase 2: mixed hit/miss lookups, batch vs loop, same key sequence
  // (duplicates included: same-batch duplicate hits must count twice).
  std::vector<std::size_t> keys;
  for (std::size_t i = 0; i < 60; ++i) keys.push_back((i * 7) % 80);
  keys.push_back(4);
  keys.push_back(4);

  std::size_t single_paranoia = 0;
  std::vector<std::optional<AnswerCache::Hit>> single_hits;
  for (const auto k : keys) {
    single_hits.push_back(single.get(k));
    if (single_hits.back().has_value() && single_hits.back()->paranoia_due) {
      ++single_paranoia;
    }
  }
  std::vector<std::optional<AnswerCache::Hit>> batch_hits;
  batched.get_batch(keys, batch_hits);

  ASSERT_EQ(batch_hits.size(), keys.size());
  std::size_t batch_paranoia = 0;
  for (std::size_t l = 0; l < keys.size(); ++l) {
    ASSERT_EQ(batch_hits[l].has_value(), single_hits[l].has_value())
        << "lane " << l << " key " << keys[l];
    if (batch_hits[l].has_value()) {
      EXPECT_EQ(batch_hits[l]->answer, single_hits[l]->answer);
      EXPECT_EQ(batch_hits[l]->has_witness, single_hits[l]->has_witness);
      EXPECT_EQ(batch_hits[l]->large, single_hits[l]->large);
      EXPECT_EQ(batch_hits[l]->profit, single_hits[l]->profit);
      EXPECT_EQ(batch_hits[l]->weight, single_hits[l]->weight);
      if (batch_hits[l]->paranoia_due) ++batch_paranoia;
    }
  }
  // Counters pinned exactly: hits, misses, and paranoia-due count per batch.
  // (WHICH lane draws a given hit number may differ - lanes are visited in
  // shard order - but the every-Nth cadence yields the same total.)
  EXPECT_EQ(batched.hits(), single.hits());
  EXPECT_EQ(batched.misses(), single.misses());
  EXPECT_EQ(batch_paranoia, single_paranoia);
  EXPECT_EQ(reg_batch.counter_value("serve_cache_hits_total"),
            reg_single.counter_value("serve_cache_hits_total"));
  EXPECT_EQ(reg_batch.counter_value("serve_cache_misses_total"),
            reg_single.counter_value("serve_cache_misses_total"));

  // Phase 3: eviction pressure, batch vs loop, same overflow sequence.
  std::vector<AnswerCache::PutItem> overflow;
  for (std::size_t i = 100; i < 260; ++i) {
    single.put(i, AnswerCache::Entry{.answer = true});
    overflow.push_back(AnswerCache::PutItem{i, AnswerCache::Entry{.answer = true}});
  }
  batched.put_batch(overflow);
  EXPECT_EQ(batched.evictions(), single.evictions());
  EXPECT_EQ(batched.size(), single.size());
  EXPECT_EQ(reg_batch.counter_value("serve_cache_evictions_total"),
            reg_single.counter_value("serve_cache_evictions_total"));
}

TEST(AnswerCache, BatchZeroCapacityAllMiss) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 0;
  AnswerCache cache(config, registry);
  cache.put_batch(std::vector<AnswerCache::PutItem>{
      {1, AnswerCache::Entry{.answer = true}}});
  std::vector<std::optional<AnswerCache::Hit>> hits;
  const std::vector<std::size_t> keys = {1, 2, 3};
  cache.get_batch(keys, hits);
  EXPECT_EQ(hits.size(), 3u);
  for (const auto& hit : hits) EXPECT_FALSE(hit.has_value());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(AnswerCache, BatchRefreshesLruLikePerRequest) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 2;
  config.shards = 1;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  cache.put(2, false);
  std::vector<std::optional<AnswerCache::Hit>> hits;
  const std::vector<std::size_t> refresh = {1};
  cache.get_batch(refresh, hits);  // refresh 1; 2 becomes LRU
  cache.put_batch(std::vector<AnswerCache::PutItem>{
      {3, AnswerCache::Entry{.answer = true}}});  // evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
}

TEST(AnswerCache, ConcurrentBatchAndSingleTrafficConserves) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 128;
  config.shards = 4;
  config.paranoia_every = 7;
  AnswerCache cache(config, registry);
  constexpr int kThreads = 4;
  constexpr int kBatches = 2'000;
  constexpr std::size_t kBatch = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::vector<std::optional<AnswerCache::Hit>> hits;
      for (int i = 0; i < kBatches; ++i) {
        std::vector<std::size_t> keys(kBatch);
        for (std::size_t k = 0; k < kBatch; ++k) {
          keys[k] = static_cast<std::size_t>((t * 131 + i * 17 + k) % 256);
        }
        if (t % 2 == 0) {
          cache.get_batch(keys, hits);
          std::vector<AnswerCache::PutItem> puts;
          for (std::size_t k = 0; k < kBatch; ++k) {
            if (!hits[k].has_value()) {
              puts.push_back(
                  AnswerCache::PutItem{keys[k],
                                       AnswerCache::Entry{.answer = keys[k] % 2 == 0}});
            }
          }
          cache.put_batch(puts);
        } else {
          for (const auto key : keys) {
            if (!cache.get(key).has_value()) cache.put(key, key % 2 == 0);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kBatches * kBatch);
  EXPECT_LE(cache.size(), 128u);
  for (std::size_t item = 0; item < 256; ++item) {
    const auto hit = cache.get(item);
    if (hit.has_value()) EXPECT_EQ(hit->answer, item % 2 == 0);
  }
}

// --- generations (epoch-scoped invalidation; ISSUE 10) ---------------------

TEST(AnswerCacheGeneration, BumpIsMonotoneAndCounted) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  EXPECT_EQ(cache.generation(), 0u);
  EXPECT_EQ(cache.invalidations(), 0u);

  EXPECT_TRUE(cache.bump_generation(3));
  EXPECT_EQ(cache.generation(), 3u);
  // Equal or lower targets are ignored — the generation never moves back.
  EXPECT_FALSE(cache.bump_generation(3));
  EXPECT_FALSE(cache.bump_generation(1));
  EXPECT_EQ(cache.generation(), 3u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_invalidations_total"), 1u);
}

TEST(AnswerCacheGeneration, StaleEntryDropsAsAMissNeverAStaleAnswer) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  cache.put(7, true);
  ASSERT_TRUE(cache.get(7).has_value());

  EXPECT_TRUE(cache.bump_generation(1));
  // The epoch-0 answer must never surface after the advance: the lookup
  // reports a miss and erases the entry.
  EXPECT_FALSE(cache.get(7).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(AnswerCacheGeneration, InvalidationIsLazyEntriesDieOnLookup) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 64;
  AnswerCache cache(config, registry);
  for (std::size_t item = 0; item < 32; ++item) cache.put(item, true);
  ASSERT_EQ(cache.size(), 32u);

  // O(1) advance: no shard is scanned, the stale entries are still resident…
  EXPECT_TRUE(cache.bump_generation(1));
  EXPECT_EQ(cache.size(), 32u);
  // …and every subsequent lookup misses and reaps its entry.
  for (std::size_t item = 0; item < 32; ++item) {
    EXPECT_FALSE(cache.get(item).has_value());
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AnswerCacheGeneration, StaleGenerationPutIsDropped) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  EXPECT_TRUE(cache.bump_generation(2));
  // A worker still finishing epoch-1 work after the advance must not poison
  // the epoch-2 cache.
  cache.put(9, AnswerCache::Entry{.answer = true, .generation = 1});
  EXPECT_FALSE(cache.get(9).has_value());
  EXPECT_EQ(cache.size(), 0u);

  // A current-generation put lands and reports its generation on the hit.
  cache.put(9, AnswerCache::Entry{.answer = true, .generation = 2});
  const auto hit = cache.get(9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->generation, 2u);
}

TEST(AnswerCacheGeneration, ConveniencePutStampsTheCurrentGeneration) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  EXPECT_TRUE(cache.bump_generation(5));
  cache.put(3, true);
  const auto hit = cache.get(3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->generation, 5u);
}

TEST(AnswerCacheGeneration, ClearInvalidatesEverythingViaOneBump) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  cache.put(2, false);
  cache.clear();
  EXPECT_EQ(cache.generation(), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(registry.counter_value("serve_cache_invalidations_total"), 1u);
}

TEST(AnswerCacheGeneration, BatchPathHonoursGenerations) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 64;
  AnswerCache cache(config, registry);
  const std::vector<std::size_t> keys = {1, 2, 3};
  std::vector<AnswerCache::PutItem> puts;
  for (const auto key : keys) {
    puts.push_back({key, AnswerCache::Entry{.answer = true,
                                            .generation = cache.generation()}});
  }
  cache.put_batch(puts);
  EXPECT_TRUE(cache.bump_generation(1));

  // get_batch must drop every stale entry, exactly like per-item gets.
  std::vector<std::optional<AnswerCache::Hit>> hits;
  cache.get_batch(keys, hits);
  for (const auto& hit : hits) EXPECT_FALSE(hit.has_value());
  EXPECT_EQ(cache.size(), 0u);

  // …and put_batch must drop stale-generation inserts.
  cache.put_batch(puts);  // still stamped generation 0
  cache.get_batch(keys, hits);
  for (const auto& hit : hits) EXPECT_FALSE(hit.has_value());
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace lcaknap::serve
