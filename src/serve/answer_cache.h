#ifndef LCAKNAP_SERVE_ANSWER_CACHE_H
#define LCAKNAP_SERVE_ANSWER_CACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.h"

/// \file answer_cache.h
/// Sharded LRU cache of `(item index -> membership decision)` answers.
///
/// Caching a query answer is only sound because of Definition 2.3: every
/// answer is a deterministic function of (shared seed, item), so a stored
/// decision can never go stale — replaying the evaluation must produce the
/// same bit.  The cache makes that assumption *checkable* instead of
/// trusted: in paranoia mode it flags every Nth hit for re-evaluation, and
/// the engine recomputes the answer and reports back whether it matched.
/// `serve_cache_paranoia_violations_total` staying at zero is the paper's
/// consistency guarantee (Lemma 4.9) as a live SLO; any nonzero value means
/// a reproducibility regression, not load.
///
/// Layout: `shards` (rounded up to a power of two) independent shards, each
/// a mutex-guarded LRU list + index, items routed by a mixed hash of the
/// index.  Counters (hits/misses/evictions/paranoia) are relaxed atomics
/// mirrored into the metrics registry.
///
/// **Generations (epoch-scoped invalidation, src/dyn).**  Definition 2.3's
/// "never stale" holds only *within* one instance epoch; an epoch advance
/// changes the function being cached.  Rather than scanning every shard on
/// advance, the cache carries a monotone generation: entries are stamped
/// with the generation they were derived under, `bump_generation(epoch)` is
/// O(1), a get that finds an older-generation entry drops it and reports a
/// miss (never a stale answer), and a put stamped with an older generation
/// is discarded (a worker still finishing epoch-N work after the advance
/// must not poison the epoch-N+1 cache).  `serve_cache_invalidations_total`
/// counts bumps.

namespace lcaknap::serve {

struct AnswerCacheConfig {
  /// Total entries across all shards; 0 disables the cache (every get
  /// misses, every put is dropped).
  std::size_t capacity = 1 << 16;
  /// Requested shard count; rounded up to the next power of two and capped
  /// at `capacity` so every shard holds at least one entry.
  std::size_t shards = 8;
  /// Re-evaluate every Nth hit and compare (0 = paranoia off).
  std::uint64_t paranoia_every = 0;
};

class AnswerCache {
 public:
  explicit AnswerCache(const AnswerCacheConfig& config,
                       metrics::Registry& registry = metrics::global_registry());

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// Cached value: the answer bit plus (optionally) the evaluation witness —
  /// the raw item contents and branch flag of `core::LcaKp::AnswerWitness`.
  /// Certifying engines store the witness so a cache hit can emit a full
  /// certificate record without touching the oracle (the hit path performs
  /// zero oracle reads, and certification must not change that).
  struct Entry {
    bool answer = false;
    bool has_witness = false;
    bool large = false;          ///< witness: norm_profit > eps^2 branch
    std::int64_t profit = 0;     ///< witness: raw item profit
    std::int64_t weight = 0;     ///< witness: raw item weight
    /// Generation (= epoch) this answer was derived under.  Puts carrying a
    /// generation older than the cache's current one are dropped; entries
    /// found with an older generation on get are dropped as misses.
    std::uint64_t generation = 0;
  };

  struct Hit {
    bool answer = false;
    /// This hit was sampled for a paranoia re-evaluation: the caller should
    /// recompute the answer and call `record_paranoia`.
    bool paranoia_due = false;
    /// Witness fields (valid when `has_witness`; see Entry).
    bool has_witness = false;
    bool large = false;
    std::int64_t profit = 0;
    std::int64_t weight = 0;
    /// Generation the entry was stored under; always the cache's current
    /// generation at read time (older entries never hit).
    std::uint64_t generation = 0;
  };

  /// Looks `item` up, refreshing its LRU position on a hit.
  [[nodiscard]] std::optional<Hit> get(std::size_t item);

  /// Inserts or refreshes `item`, evicting the shard's LRU tail when full.
  /// Dropped entirely when `entry.generation` is older than the cache's
  /// current generation.
  void put(std::size_t item, const Entry& entry);
  /// Witness-free insert (non-certifying callers), stamped with the current
  /// generation.
  void put(std::size_t item, bool answer) {
    put(item, Entry{.answer = answer, .generation = generation()});
  }

  /// One insert of a `put_batch`.
  struct PutItem {
    std::size_t item = 0;
    Entry entry;
  };

  /// Batch lookup for the engine's answer path: groups `items` by shard and
  /// takes each shard mutex ONCE per batch (`get` takes it once per item),
  /// then bulk-updates the counters.  `out[l]` is exactly
  /// what `get(items[l])` would have returned.  Counter totals — hits,
  /// misses, and the number of paranoia-due hits per batch — are identical
  /// to issuing the gets one by one (hit numbers `base+1 ... base+k` are
  /// claimed as one block, preserving the every-Nth paranoia cadence);
  /// only *which* lane of a batch draws a given hit number may differ, since
  /// lanes are visited in shard order rather than request order.
  void get_batch(std::span<const std::size_t> items,
                 std::vector<std::optional<Hit>>& out);

  /// Batch insert, same shard-grouped single-lock discipline as `get_batch`;
  /// equivalent to calling `put` per element in order.
  void put_batch(std::span<const PutItem> puts);

  /// Reports the result of a paranoia re-evaluation (`consistent` = the
  /// recomputed answer matched the cached one).
  void record_paranoia(bool consistent);

  // --- epoch-scoped invalidation -----------------------------------------
  /// Raises the current generation to `generation` (monotone; lower or equal
  /// values are ignored and return false).  O(1): no shard is touched —
  /// entries of older generations die lazily on their next lookup or
  /// eviction.  Counts one invalidation event when the generation moves.
  bool bump_generation(std::uint64_t generation);
  /// Invalidates everything currently cached: bumps the generation by one.
  void clear() { (void)bump_generation(generation() + 1); }
  [[nodiscard]] std::uint64_t generation() const noexcept;
  /// Invalidation events (generation bumps), mirrored as
  /// `serve_cache_invalidations_total`.
  [[nodiscard]] std::uint64_t invalidations() const noexcept;

  // Counter readouts (also exported as `serve_cache_*` registry families).
  [[nodiscard]] std::uint64_t hits() const noexcept;
  [[nodiscard]] std::uint64_t misses() const noexcept;
  [[nodiscard]] std::uint64_t evictions() const noexcept;
  [[nodiscard]] std::uint64_t paranoia_checks() const noexcept;
  [[nodiscard]] std::uint64_t paranoia_violations() const noexcept;

  /// Entries currently cached (sums shard sizes; racy but exact at rest).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] const AnswerCacheConfig& config() const noexcept { return config_; }

 private:
  struct Shard {
    std::mutex mutex;
    std::size_t capacity = 0;
    /// Front = most recently used; entries are (item, cached value).
    std::list<std::pair<std::size_t, Entry>> lru;
    std::unordered_map<std::size_t,
                       std::list<std::pair<std::size_t, Entry>>::iterator>
        index;
  };

  [[nodiscard]] Shard& shard_for(std::size_t item) noexcept;

  AnswerCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> paranoia_checks_{0};
  std::atomic<std::uint64_t> paranoia_violations_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> invalidations_{0};

  metrics::Counter* hits_total_;
  metrics::Counter* misses_total_;
  metrics::Counter* evictions_total_;
  metrics::Counter* paranoia_checks_total_;
  metrics::Counter* paranoia_violations_total_;
  metrics::Counter* invalidations_total_;
};

}  // namespace lcaknap::serve

#endif  // LCAKNAP_SERVE_ANSWER_CACHE_H
