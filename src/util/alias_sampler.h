#ifndef LCAKNAP_UTIL_ALIAS_SAMPLER_H
#define LCAKNAP_UTIL_ALIAS_SAMPLER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

/// \file alias_sampler.h
/// Walker's alias method: O(n) preprocessing, O(1) per draw from an arbitrary
/// discrete distribution.  Backs the weighted-sampling oracle of Section 4
/// (items are drawn with probability proportional to their profit).

namespace lcaknap::util {

/// Immutable alias table over indices [0, n), 12 bytes per bucket.
class AliasSampler {
 public:
  /// Builds the table from non-negative weights; at least one weight must be
  /// positive, and there may be at most 2^32 - 1 of them.  Weights need not
  /// be normalised.  The vector becomes the table's probability column, so
  /// a caller that moves it in pays no copy.
  explicit AliasSampler(std::vector<double> weights);

  /// Draws an index with probability weight[i] / sum(weights).
  [[nodiscard]] std::size_t sample(Xoshiro256& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

 private:
  std::vector<double> prob_;          // acceptance probability per bucket
  std::vector<std::uint32_t> alias_;  // fallback index per bucket
};

}  // namespace lcaknap::util

#endif  // LCAKNAP_UTIL_ALIAS_SAMPLER_H
