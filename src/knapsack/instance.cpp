#include "knapsack/instance.h"

#include <algorithm>
#include <array>
#include <istream>
#include <limits>
#include <ostream>

namespace lcaknap::knapsack {

namespace {

/// A fresh, writable chunk of Instance::kChunkItems default items.
std::shared_ptr<Item> new_chunk() {
  auto storage = std::make_shared<std::array<Item, Instance::kChunkItems>>();
  Item* first = storage->data();
  return {std::move(storage), first};
}

}  // namespace

Instance::Instance(std::vector<Item> items, std::int64_t capacity)
    : size_(items.size()), capacity_(capacity) {
  if (size_ == 0) throw std::invalid_argument("Instance: no items");
  if (capacity_ < 0) throw std::invalid_argument("Instance: negative capacity");
  for (const auto& it : items) {
    validate(it);
    total_profit_ += it.profit;
    weight_sum_ += it.weight;
  }
  if (total_profit_ <= 0) {
    throw std::invalid_argument("Instance: total profit must be positive");
  }
  // One slab owns the vector's buffer; every chunk pointer aliases into it.
  const auto slab = std::make_shared<std::vector<Item>>(std::move(items));
  chunks_.reserve((size_ + kChunkItems - 1) / kChunkItems);
  for (std::size_t first = 0; first < size_; first += kChunkItems) {
    chunks_.emplace_back(slab, slab->data() + first);
  }
}

void Instance::validate(const Item& it) const {
  if (it.profit < 0) throw std::invalid_argument("Instance: negative profit");
  if (it.weight < 0) throw std::invalid_argument("Instance: negative weight");
  if (it.weight > capacity_) {
    throw std::invalid_argument(
        "Instance: item weight exceeds capacity (Definition 2.2 requires w_i <= K)");
  }
}

Instance Instance::with_changes(std::span<const ItemWrite> writes,
                                std::span<const Item> appended) const {
  Instance next(*this);
  // A chunk `next` still shares with *this is cloned before its first write.
  const auto writable = [&](std::size_t c) {
    if (c < chunks_.size() && next.chunks_[c] == chunks_[c]) {
      auto copy = new_chunk();
      const std::size_t len = std::min(kChunkItems, size_ - c * kChunkItems);
      std::copy_n(chunks_[c].get(), len, copy.get());
      next.chunks_[c] = std::move(copy);
    }
    return next.chunks_[c].get();
  };
  for (const auto& w : writes) {
    if (w.index >= size_) {
      throw std::out_of_range("Instance::with_changes: index out of range");
    }
    validate(w.item);
    Item& slot = writable(w.index / kChunkItems)[w.index % kChunkItems];
    next.total_profit_ += w.item.profit - slot.profit;
    next.weight_sum_ += w.item.weight - slot.weight;
    slot = w.item;
  }
  for (const auto& it : appended) {
    validate(it);
    const std::size_t i = next.size_++;
    if (i % kChunkItems == 0) next.chunks_.push_back(new_chunk());
    writable(i / kChunkItems)[i % kChunkItems] = it;
    next.total_profit_ += it.profit;
    next.weight_sum_ += it.weight;
  }
  if (next.total_profit_ <= 0) {
    throw std::invalid_argument("Instance: total profit must be positive");
  }
  return next;
}

double Instance::efficiency(std::size_t i) const {
  const Item& it = item(i);
  if (it.weight == 0) return std::numeric_limits<double>::infinity();
  return norm_profit(i) / norm_weight(i);
}

std::int64_t Instance::value_of(std::span<const std::size_t> selection) const {
  std::int64_t total = 0;
  for (const auto i : selection) total += item(i).profit;
  return total;
}

std::int64_t Instance::weight_of(std::span<const std::size_t> selection) const {
  std::int64_t total = 0;
  for (const auto i : selection) total += item(i).weight;
  return total;
}

bool Instance::feasible(std::span<const std::size_t> selection) const {
  return weight_of(selection) <= capacity_;
}

Solution Instance::make_solution(std::vector<std::size_t> selection) const {
  Solution sol;
  sol.value = value_of(selection);
  sol.weight = weight_of(selection);
  sol.items = std::move(selection);
  return sol;
}

bool Instance::is_maximal(std::span<const std::size_t> selection) const {
  if (!feasible(selection)) return false;
  const std::int64_t slack = capacity_ - weight_of(selection);
  std::vector<bool> chosen(size(), false);
  for (const auto i : selection) chosen[i] = true;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!chosen[i] && item(i).weight <= slack) return false;
  }
  return true;
}

void Instance::save(std::ostream& os) const {
  os << size_ << " " << capacity_ << "\n";
  for (std::size_t i = 0; i < size_; ++i) {
    const Item& it = item(i);
    os << it.profit << " " << it.weight << "\n";
  }
}

Instance Instance::load(std::istream& is) {
  std::size_t n = 0;
  std::int64_t capacity = 0;
  if (!(is >> n >> capacity)) {
    throw std::runtime_error("Instance::load: malformed header");
  }
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Item it;
    if (!(is >> it.profit >> it.weight)) {
      throw std::runtime_error("Instance::load: truncated item list");
    }
    items.push_back(it);
  }
  return {std::move(items), capacity};
}

}  // namespace lcaknap::knapsack
