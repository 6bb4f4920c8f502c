#ifndef LCAKNAP_KNAPSACK_INSTANCE_H
#define LCAKNAP_KNAPSACK_INSTANCE_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "knapsack/item.h"

/// \file instance.h
/// The Knapsack instance I = (S, K) of Definition 2.2 and the normalized view
/// used throughout Section 4: total profit is treated as 1 and total weight
/// as 1, so every profit/weight/efficiency the algorithms reason about is the
/// *normalized* one.  Raw integer values are retained so exact solvers stay
/// exact and so the finite efficiency domain (Section 4.2) is well defined.
///
/// Storage is copy-on-write: the items live in fixed chunks of
/// `kChunkItems` held by shared pointers, so copying an instance shares every
/// chunk and `with_changes` clones only the chunks its writes touch.  An
/// epoch of a dynamic instance (src/dyn) therefore costs what its update
/// changed, not n items.

namespace lcaknap::knapsack {

/// A selection of item indices together with its exact raw value and weight.
struct Solution {
  std::vector<std::size_t> items;
  std::int64_t value = 0;
  std::int64_t weight = 0;
};

class Instance {
 public:
  /// Items per storage chunk: the copy-on-write grain of `with_changes`.
  static constexpr std::size_t kChunkItems = 64;

  /// One replaced item of `with_changes`.
  struct ItemWrite {
    std::size_t index = 0;
    Item item;
  };

  /// Validates and stores the items.  Requirements (throwing
  /// std::invalid_argument when violated): at least one item, profits >= 0
  /// with positive total, weights >= 0, capacity >= 0, and every weight at
  /// most the capacity (the paper's Definition 2.2 convention; items heavier
  /// than K could never be chosen and are excluded by instance construction).
  /// The vector's buffer becomes the chunks' one backing slab: no item is
  /// copied.
  Instance(std::vector<Item> items, std::int64_t capacity);

  /// Returns a copy with each write applied in order (a later write to the
  /// same index wins) and `appended` added after the last item.  The copy
  /// shares every chunk no write or append touches; only the written and
  /// appended items are validated, and the totals are updated by difference.
  /// Throws std::out_of_range for a write index >= size() and
  /// std::invalid_argument when the result would break a constructor
  /// requirement; `*this` is unchanged either way.
  [[nodiscard]] Instance with_changes(std::span<const ItemWrite> writes,
                                      std::span<const Item> appended) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const Item& item(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("Instance::item: index out of range");
    return chunks_[i / kChunkItems].get()[i % kChunkItems];
  }
  [[nodiscard]] std::int64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::int64_t total_profit() const noexcept { return total_profit_; }
  /// Sum of the weights, or 1 when every weight is zero (Theorem 3.4's hard
  /// family is mostly weight zero) so the normalized views stay finite.
  [[nodiscard]] std::int64_t total_weight() const noexcept {
    return weight_sum_ == 0 ? 1 : weight_sum_;
  }

  /// Normalized profit p_i in (0, 1]: raw profit divided by total profit.
  [[nodiscard]] double norm_profit(std::size_t i) const {
    return static_cast<double>(item(i).profit) / static_cast<double>(total_profit_);
  }
  /// Normalized weight w_i: raw weight divided by total weight.
  [[nodiscard]] double norm_weight(std::size_t i) const {
    return static_cast<double>(item(i).weight) / static_cast<double>(total_weight());
  }
  /// Normalized capacity K: raw capacity divided by total weight.
  [[nodiscard]] double norm_capacity() const noexcept {
    return static_cast<double>(capacity_) / static_cast<double>(total_weight());
  }
  /// Normalized efficiency p_i / w_i (ratio of normalized profit to
  /// normalized weight); +infinity for zero-weight items.
  [[nodiscard]] double efficiency(std::size_t i) const;

  /// Exact value / weight of a selection of indices.
  [[nodiscard]] std::int64_t value_of(std::span<const std::size_t> selection) const;
  [[nodiscard]] std::int64_t weight_of(std::span<const std::size_t> selection) const;
  /// True when the selection's total weight is within the capacity.
  [[nodiscard]] bool feasible(std::span<const std::size_t> selection) const;
  /// Builds a Solution record (value/weight filled in) for a selection.
  [[nodiscard]] Solution make_solution(std::vector<std::size_t> selection) const;

  /// True when no item outside `selection` can be added without exceeding the
  /// capacity — the "maximal feasible" notion of Theorem 3.4.
  [[nodiscard]] bool is_maximal(std::span<const std::size_t> selection) const;

  /// Plain-text serialization: "n capacity" then one "profit weight" per line.
  void save(std::ostream& os) const;
  [[nodiscard]] static Instance load(std::istream& is);

 private:
  /// Checks one item against the capacity (the constructor's per-item rules).
  void validate(const Item& it) const;

  /// chunks_[c] points at item c * kChunkItems; every chunk but the last
  /// holds kChunkItems items.  No chunk is written after the call that made
  /// it returns: `with_changes` writes only chunks it cloned itself.
  std::vector<std::shared_ptr<Item>> chunks_;
  std::size_t size_ = 0;
  std::int64_t capacity_;
  std::int64_t total_profit_ = 0;
  std::int64_t weight_sum_ = 0;
};

}  // namespace lcaknap::knapsack

#endif  // LCAKNAP_KNAPSACK_INSTANCE_H
