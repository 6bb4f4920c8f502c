#include "serve/answer_cache.h"

#include <algorithm>

#include "util/rng.h"

namespace lcaknap::serve {
namespace {

std::size_t round_up_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

/// (shard, position) pairs of one batch call, reused per thread so a batch
/// allocates nothing once the buffer has reached its high-water size.
/// Positions in a batch are distinct, so sorting the pairs orders them by
/// shard and keeps each shard's positions in request order.
std::vector<std::pair<std::size_t, std::size_t>>& shard_order() {
  static thread_local std::vector<std::pair<std::size_t, std::size_t>> order;
  order.clear();
  return order;
}

}  // namespace

AnswerCache::AnswerCache(const AnswerCacheConfig& config,
                         metrics::Registry& registry)
    : config_(config),
      hits_total_(&registry.counter(
          "serve_cache_hits_total", "Answer-cache hits in the serving engine")),
      misses_total_(&registry.counter(
          "serve_cache_misses_total", "Answer-cache misses in the serving engine")),
      evictions_total_(&registry.counter(
          "serve_cache_evictions_total", "Answer-cache LRU evictions")),
      paranoia_checks_total_(&registry.counter(
          "serve_cache_paranoia_checks_total",
          "Cache hits re-evaluated by the paranoia consistency check")),
      paranoia_violations_total_(&registry.counter(
          "serve_cache_paranoia_violations_total",
          "Paranoia re-evaluations that disagreed with the cached answer "
          "(must stay 0; Definition 2.3 as an SLO)")),
      invalidations_total_(&registry.counter(
          "serve_cache_invalidations_total",
          "Whole-cache invalidation events (generation bumps, e.g. epoch "
          "advances); O(1) each, stale entries die lazily")) {
  std::size_t n_shards =
      round_up_pow2(std::max<std::size_t>(1, config.shards));
  if (config.capacity > 0) {
    // Every shard must hold at least one entry or it could never cache.
    while (n_shards > 1 && n_shards > config.capacity) n_shards >>= 1;
  }
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Distribute the capacity; earlier shards absorb the remainder.
    shard->capacity = config.capacity / n_shards +
                      (s < config.capacity % n_shards ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

AnswerCache::Shard& AnswerCache::shard_for(std::size_t item) noexcept {
  // shards_.size() is a power of two; mix so adjacent indices spread.
  const auto h = util::mix64(static_cast<std::uint64_t>(item));
  return *shards_[h & (shards_.size() - 1)];
}

std::optional<AnswerCache::Hit> AnswerCache::get(std::size_t item) {
  if (config_.capacity == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_total_->inc();
    return std::nullopt;
  }
  Shard& shard = shard_for(item);
  const std::uint64_t current = generation_.load(std::memory_order_acquire);
  Entry entry;
  {
    const std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(item);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      misses_total_->inc();
      return std::nullopt;
    }
    if (it->second->second.generation != current) {
      // Stale epoch: the entry answers a question the instance no longer
      // asks.  Drop it and report a miss — never a stale answer.
      shard.lru.erase(it->second);
      shard.index.erase(it);
      misses_.fetch_add(1, std::memory_order_relaxed);
      misses_total_->inc();
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    entry = it->second->second;
  }
  const auto hit_no = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  hits_total_->inc();
  Hit hit;
  hit.answer = entry.answer;
  hit.paranoia_due =
      config_.paranoia_every > 0 && hit_no % config_.paranoia_every == 0;
  hit.has_witness = entry.has_witness;
  hit.large = entry.large;
  hit.profit = entry.profit;
  hit.weight = entry.weight;
  hit.generation = entry.generation;
  return hit;
}

void AnswerCache::put(std::size_t item, const Entry& entry) {
  if (config_.capacity == 0) return;
  if (entry.generation != generation_.load(std::memory_order_acquire)) {
    return;  // a writer from a superseded epoch must not poison the cache
  }
  Shard& shard = shard_for(item);
  bool evicted = false;
  {
    const std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(item);
    if (it != shard.index.end()) {
      it->second->second = entry;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.capacity == 0) return;  // degenerate split: shard holds nothing
    if (shard.lru.size() >= shard.capacity) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evicted = true;
    }
    shard.lru.emplace_front(item, entry);
    shard.index.emplace(item, shard.lru.begin());
  }
  if (evicted) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions_total_->inc();
  }
}

void AnswerCache::get_batch(std::span<const std::size_t> items,
                            std::vector<std::optional<Hit>>& out) {
  out.assign(items.size(), std::nullopt);
  if (items.empty()) return;
  if (config_.capacity == 0) {
    misses_.fetch_add(items.size(), std::memory_order_relaxed);
    misses_total_->inc(items.size());
    return;
  }
  // Group lanes by shard, then visit each shard's group under one lock
  // acquisition.
  auto& by_shard = shard_order();  // (shard, lane)
  const std::size_t mask = shards_.size() - 1;
  for (std::size_t l = 0; l < items.size(); ++l) {
    by_shard.emplace_back(util::mix64(static_cast<std::uint64_t>(items[l])) & mask, l);
  }
  std::sort(by_shard.begin(), by_shard.end());

  // Entries are copied out under the lock; the hit numbers are claimed
  // afterwards in one block.
  std::size_t hit_count = 0;
  std::size_t miss_count = 0;
  const std::uint64_t current = generation_.load(std::memory_order_acquire);

  std::size_t g = 0;
  while (g < by_shard.size()) {
    const std::size_t shard_id = by_shard[g].first;
    Shard& shard = *shards_[shard_id];
    const std::lock_guard lock(shard.mutex);
    for (; g < by_shard.size() && by_shard[g].first == shard_id; ++g) {
      const std::size_t lane = by_shard[g].second;
      const auto it = shard.index.find(items[lane]);
      if (it == shard.index.end()) {
        ++miss_count;
        continue;
      }
      if (it->second->second.generation != current) {
        shard.lru.erase(it->second);
        shard.index.erase(it);
        ++miss_count;
        continue;
      }
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      const Entry& entry = it->second->second;
      Hit& hit = out[lane].emplace();
      hit.answer = entry.answer;
      hit.has_witness = entry.has_witness;
      hit.large = entry.large;
      hit.profit = entry.profit;
      hit.weight = entry.weight;
      hit.generation = entry.generation;
      ++hit_count;
    }
  }

  if (miss_count > 0) {
    misses_.fetch_add(miss_count, std::memory_order_relaxed);
    misses_total_->inc(miss_count);
  }
  if (hit_count > 0) {
    // Claim hit numbers base+1 .. base+k as one block: the batch produces
    // exactly the paranoia-due count k single `get` calls would have.
    const auto base = hits_.fetch_add(hit_count, std::memory_order_relaxed);
    hits_total_->inc(hit_count);
    if (config_.paranoia_every > 0) {
      // Number the hits in visit order.
      std::uint64_t hit_no = base;
      for (const auto& [shard_id, lane] : by_shard) {
        if (out[lane]) {
          out[lane]->paranoia_due = ++hit_no % config_.paranoia_every == 0;
        }
      }
    }
  }
}

void AnswerCache::put_batch(std::span<const PutItem> puts) {
  if (config_.capacity == 0 || puts.empty()) return;
  const std::uint64_t current = generation_.load(std::memory_order_acquire);
  auto& by_shard = shard_order();  // (shard, index into puts)
  const std::size_t mask = shards_.size() - 1;
  for (std::size_t i = 0; i < puts.size(); ++i) {
    if (puts[i].entry.generation != current) continue;  // superseded epoch
    by_shard.emplace_back(
        util::mix64(static_cast<std::uint64_t>(puts[i].item)) & mask, i);
  }
  if (by_shard.empty()) return;
  std::sort(by_shard.begin(), by_shard.end());

  std::size_t evicted = 0;
  std::size_t g = 0;
  while (g < by_shard.size()) {
    const std::size_t shard_id = by_shard[g].first;
    Shard& shard = *shards_[shard_id];
    const std::lock_guard lock(shard.mutex);
    for (; g < by_shard.size() && by_shard[g].first == shard_id; ++g) {
      const PutItem& p = puts[by_shard[g].second];
      const auto it = shard.index.find(p.item);
      if (it != shard.index.end()) {
        it->second->second = p.entry;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        continue;
      }
      if (shard.capacity == 0) continue;
      if (shard.lru.size() >= shard.capacity) {
        shard.index.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++evicted;
      }
      shard.lru.emplace_front(p.item, p.entry);
      shard.index.emplace(p.item, shard.lru.begin());
    }
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    evictions_total_->inc(evicted);
  }
}

void AnswerCache::record_paranoia(bool consistent) {
  paranoia_checks_.fetch_add(1, std::memory_order_relaxed);
  paranoia_checks_total_->inc();
  if (!consistent) {
    paranoia_violations_.fetch_add(1, std::memory_order_relaxed);
    paranoia_violations_total_->inc();
  }
}

std::uint64_t AnswerCache::hits() const noexcept {
  return hits_.load(std::memory_order_relaxed);
}
std::uint64_t AnswerCache::misses() const noexcept {
  return misses_.load(std::memory_order_relaxed);
}
std::uint64_t AnswerCache::evictions() const noexcept {
  return evictions_.load(std::memory_order_relaxed);
}
std::uint64_t AnswerCache::paranoia_checks() const noexcept {
  return paranoia_checks_.load(std::memory_order_relaxed);
}
std::uint64_t AnswerCache::paranoia_violations() const noexcept {
  return paranoia_violations_.load(std::memory_order_relaxed);
}

bool AnswerCache::bump_generation(std::uint64_t generation) {
  std::uint64_t current = generation_.load(std::memory_order_relaxed);
  while (current < generation) {
    if (generation_.compare_exchange_weak(current, generation,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      invalidations_.fetch_add(1, std::memory_order_relaxed);
      invalidations_total_->inc();
      return true;
    }
  }
  return false;
}

std::uint64_t AnswerCache::generation() const noexcept {
  return generation_.load(std::memory_order_acquire);
}

std::uint64_t AnswerCache::invalidations() const noexcept {
  return invalidations_.load(std::memory_order_relaxed);
}

std::size_t AnswerCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace lcaknap::serve
