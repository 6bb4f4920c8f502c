#include "oracle/sharded.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace lcaknap::oracle {

ShardedAccess::ShardedAccess(const knapsack::Instance& instance, std::size_t shards,
                             metrics::Registry& registry)
    : instance_(&instance) {
  const std::size_t n = instance.size();
  if (shards == 0 || shards > n) {
    throw std::invalid_argument("ShardedAccess: shards must be in [1, n]");
  }
  shards_ = std::vector<Shard>(shards);
  std::vector<double> shard_masses(shards, 0.0);
  const std::size_t base = n / shards;
  const std::size_t extra = n % shards;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t count = base + (s < extra ? 1 : 0);
    shards_[s].begin = cursor;
    shards_[s].end = cursor + count;
    std::vector<double> weights;
    weights.reserve(count);
    for (std::size_t i = shards_[s].begin; i < shards_[s].end; ++i) {
      const double p = static_cast<double>(instance.item(i).profit);
      weights.push_back(p);
      shard_masses[s] += p;
    }
    // A shard whose items all have zero profit can never be drawn; give its
    // sampler a degenerate positive weight so construction succeeds, and set
    // the shard mass to zero so the picker skips it.
    if (shard_masses[s] <= 0.0) {
      weights.assign(count, 1.0);
    }
    shards_[s].sampler =
        std::make_unique<util::AliasSampler>(std::move(weights));
    if (shards <= kMaxLabeledShards) {
      shards_[s].traffic = &registry.counter(
          "oracle_shard_accesses_total",
          "Oracle accesses (queries + samples) routed to each shard",
          {{"shard", std::to_string(s)}});
    }
    cursor = shards_[s].end;
  }
  shard_picker_ = std::make_unique<util::AliasSampler>(std::move(shard_masses));
}

std::size_t ShardedAccess::size() const noexcept { return instance_->size(); }
std::int64_t ShardedAccess::capacity() const noexcept { return instance_->capacity(); }
std::int64_t ShardedAccess::total_profit() const noexcept {
  return instance_->total_profit();
}
std::int64_t ShardedAccess::total_weight() const noexcept {
  return instance_->total_weight();
}

std::uint64_t ShardedAccess::shard_load(std::size_t s) const {
  return shards_.at(s).load.load(std::memory_order_relaxed);
}

const ShardedAccess::Shard& ShardedAccess::shard_for(std::size_t index) const {
  const std::size_t n = instance_->size();
  if (index >= n) throw std::out_of_range("ShardedAccess: index out of range");
  const std::size_t shards = shards_.size();
  const std::size_t base = n / shards;
  const std::size_t extra = n % shards;
  // Indices below the split point live in shards of size base+1.
  const std::size_t split = extra * (base + 1);
  const std::size_t s = index < split ? index / (base + 1)
                                      : extra + (index - split) / base;
  return shards_[s];
}

knapsack::Item ShardedAccess::do_query(std::size_t i) const {
  const Shard& shard = shard_for(i);
  shard.load.fetch_add(1, std::memory_order_relaxed);
  if (shard.traffic != nullptr) shard.traffic->inc();
  return instance_->item(i);
}

WeightedDraw ShardedAccess::do_sample(util::Xoshiro256& rng) const {
  const std::size_t s = shard_picker_->sample(rng);
  const Shard& shard = shards_[s];
  shard.load.fetch_add(1, std::memory_order_relaxed);
  if (shard.traffic != nullptr) shard.traffic->inc();
  const std::size_t local = shard.sampler->sample(rng);
  const std::size_t global = shard.begin + local;
  return {global, instance_->item(global)};
}

}  // namespace lcaknap::oracle
