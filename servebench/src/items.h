#ifndef SERVEBENCH_ITEMS_H
#define SERVEBENCH_ITEMS_H

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/alias_sampler.h"
#include "util/rng.h"

/// \file items.h
/// The workloads' item popularity shapes.  A `Popularity` is built once per
/// run from the workload seed and shared read-only; each load-generating
/// thread draws from it with its own `util::Xoshiro256`, seeded from
/// (workload seed, thread index), so the same seed replays the same streams.

namespace servebench {

class Popularity {
 public:
  /// Every item equally likely.
  static Popularity uniform(std::size_t n) {
    Popularity p;
    p.n_ = n;
    return p;
  }

  /// Item of rank r (item index r - 1) drawn with P(r) proportional to 1/r^s.
  static Popularity zipf(std::size_t n, double s) {
    Popularity p;
    p.n_ = n;
    std::vector<double> weights(n);
    for (std::size_t r = 0; r < n; ++r) {
      weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    }
    p.zipf_ = std::make_shared<const util::AliasSampler>(weights);
    return p;
  }

  /// `hot_share` of the traffic on `hot_items` distinct items chosen from
  /// `seed`; the rest uniform over all n.
  static Popularity hotspot(std::size_t n, double hot_share,
                            std::size_t hot_items, std::uint64_t seed) {
    Popularity p;
    p.n_ = n;
    p.hot_share_ = hot_share;
    util::Xoshiro256 rng(seed);
    std::vector<bool> taken(n, false);
    while (p.hot_.size() < hot_items && p.hot_.size() < n) {
      const auto item = static_cast<std::size_t>(rng.next_below(n));
      if (taken[item]) continue;
      taken[item] = true;
      p.hot_.push_back(item);
    }
    return p;
  }

  [[nodiscard]] std::size_t next(util::Xoshiro256& rng) const {
    if (zipf_ != nullptr) return zipf_->sample(rng);
    if (!hot_.empty() && rng.next_double() < hot_share_) {
      return hot_[static_cast<std::size_t>(rng.next_below(hot_.size()))];
    }
    return static_cast<std::size_t>(rng.next_below(n_));
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  Popularity() = default;

  std::size_t n_ = 0;
  std::shared_ptr<const util::AliasSampler> zipf_;
  double hot_share_ = 0.0;
  std::vector<std::size_t> hot_;
};

/// Seed of load-generating stream `stream` under workload seed `seed`.
[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  return util::mix64(util::mix64(seed) + stream + 1);
}

}  // namespace servebench

#endif  // SERVEBENCH_ITEMS_H
