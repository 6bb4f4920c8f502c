#include "util/alias_sampler.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace lcaknap::util {

AliasSampler::AliasSampler(std::vector<double> weights)
    : prob_(std::move(weights)) {
  const std::size_t n = prob_.size();
  if (n == 0) throw std::invalid_argument("AliasSampler: empty weights");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("AliasSampler: more than 2^32 - 1 weights");
  }
  double total = 0.0;
  for (const double w : prob_) {
    if (w < 0.0) throw std::invalid_argument("AliasSampler: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("AliasSampler: zero total weight");

  // Scale in place: prob_[i] holds the bucket's mass (mean 1) until the
  // bucket is settled, then its acceptance probability.
  for (double& p : prob_) p = p * static_cast<double>(n) / total;
  alias_.assign(n, 0);
  // Two stacks in one worklist: under-full buckets grow up from 0, over-full
  // ones down from n.  A bucket is in at most one of them, so they never
  // meet.
  std::vector<std::uint32_t> work(n);
  std::size_t small = 0;  // work[0, small) is the under-full stack
  std::size_t large = n;  // work[large, n) is the over-full stack, top first
  const auto push = [&](std::uint32_t i) {
    if (prob_[i] < 1.0) {
      work[small++] = i;
    } else {
      work[--large] = i;
    }
  };
  for (std::size_t i = 0; i < n; ++i) push(static_cast<std::uint32_t>(i));
  while (small > 0 && large < n) {
    const std::uint32_t s = work[--small];
    const std::uint32_t l = work[large++];
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    push(l);
  }
  // Remaining buckets are (numerically) full.
  for (std::size_t k = 0; k < small; ++k) prob_[work[k]] = 1.0;
  for (std::size_t k = large; k < n; ++k) prob_[work[k]] = 1.0;
}

std::size_t AliasSampler::sample(Xoshiro256& rng) const noexcept {
  const std::size_t bucket = rng.next_below(prob_.size());
  return rng.next_double() < prob_[bucket] ? bucket : alias_[bucket];
}

}  // namespace lcaknap::util
