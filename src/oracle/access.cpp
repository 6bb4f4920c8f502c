#include "oracle/access.h"

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace lcaknap::oracle {

double InstanceAccess::efficiency(const knapsack::Item& it) const noexcept {
  if (it.weight == 0) return std::numeric_limits<double>::infinity();
  return norm_profit(it) / norm_weight(it);
}

namespace {
std::vector<double> profit_weights(const knapsack::Instance& instance) {
  std::vector<double> weights;
  weights.reserve(instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    weights.push_back(static_cast<double>(instance.item(i).profit));
  }
  return weights;
}
}  // namespace

MaterializedAccess::MaterializedAccess(const knapsack::Instance& instance)
    : instance_(&instance),
      sampler_(std::make_shared<const util::AliasSampler>(
          profit_weights(instance))) {}

MaterializedAccess::MaterializedAccess(const knapsack::Instance& instance,
                                       const MaterializedAccess& table_owner)
    : instance_(&instance), sampler_(table_owner.sampler_) {
  if (sampler_->size() != instance.size()) {
    throw std::invalid_argument(
        "MaterializedAccess: shared alias table covers " +
        std::to_string(sampler_->size()) + " items, instance has " +
        std::to_string(instance.size()));
  }
}

std::size_t MaterializedAccess::size() const noexcept { return instance_->size(); }
std::int64_t MaterializedAccess::capacity() const noexcept {
  return instance_->capacity();
}
std::int64_t MaterializedAccess::total_profit() const noexcept {
  return instance_->total_profit();
}
std::int64_t MaterializedAccess::total_weight() const noexcept {
  return instance_->total_weight();
}

knapsack::Item MaterializedAccess::do_query(std::size_t i) const {
  return instance_->item(i);
}

WeightedDraw MaterializedAccess::do_sample(util::Xoshiro256& rng) const {
  const std::size_t index = sampler_->sample(rng);
  return {index, instance_->item(index)};
}

}  // namespace lcaknap::oracle
