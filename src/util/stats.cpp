#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace lcaknap::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci_half_width(double z) const noexcept {
  return n_ >= 2 ? z * stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

EmpiricalCdf::EmpiricalCdf(std::span<const double> data)
    : sorted_(data.begin(), data.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double p) const noexcept {
  if (sorted_.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto n = static_cast<double>(sorted_.size());
  auto idx = static_cast<std::size_t>(std::ceil(clamped * n));
  if (idx > 0) --idx;
  idx = std::min(idx, sorted_.size() - 1);
  return sorted_[idx];
}

EmpiricalCdfInt::EmpiricalCdfInt(std::span<const std::int64_t> data)
    : sorted_(data.begin(), data.end()), n_(data.size()) {
  std::sort(sorted_.begin(), sorted_.end());
}

EmpiricalCdfInt::EmpiricalCdfInt(std::vector<std::size_t> counts)
    : cum_(std::move(counts)) {
  if (cum_.empty()) {
    throw std::invalid_argument("EmpiricalCdfInt: the domain needs at least one cell");
  }
  for (std::size_t value = 1; value < cum_.size(); ++value) {
    cum_[value] += cum_[value - 1];
  }
  n_ = cum_.back();
}

double EmpiricalCdfInt::at(std::int64_t x) const noexcept {
  if (n_ == 0) return 0.0;
  if (!cum_.empty()) {
    if (x < 0) return 0.0;
    const auto idx = std::min(static_cast<std::size_t>(x), cum_.size() - 1);
    return static_cast<double>(cum_[idx]) / static_cast<double>(n_);
  }
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(n_);
}

std::int64_t EmpiricalCdfInt::quantile(double p, std::int64_t fallback) const noexcept {
  if (n_ == 0) return fallback;
  const double clamped = std::clamp(p, 0.0, 1.0);
  auto idx = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(n_)));
  if (idx > 0) --idx;
  idx = std::min(idx, n_ - 1);
  if (!cum_.empty()) {
    // The idx-th order statistic: the smallest value v with cum_[v] > idx —
    // exactly sorted_[idx] of the expanded representation.
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), idx);
    return static_cast<std::int64_t>(it - cum_.begin());
  }
  return sorted_[idx];
}

std::size_t dkw_sample_size(double eps, double delta) noexcept {
  assert(eps > 0 && delta > 0 && delta < 1);
  return static_cast<std::size_t>(
      std::ceil(std::log(2.0 / delta) / (2.0 * eps * eps)));
}

RateInterval wilson_interval(std::size_t successes, std::size_t trials,
                             double z) noexcept {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

double chi_square(std::span<const std::size_t> observed,
                  std::span<const double> expected_probs) {
  if (observed.size() != expected_probs.size() || observed.empty()) {
    throw std::invalid_argument("chi_square: mismatched or empty inputs");
  }
  std::size_t total = 0;
  for (const auto count : observed) total += count;
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected = expected_probs[i] * static_cast<double>(total);
    if (expected <= 0.0) {
      throw std::invalid_argument("chi_square: non-positive expected count");
    }
    const double diff = static_cast<double>(observed[i]) - expected;
    stat += diff * diff / expected;
  }
  return stat;
}

}  // namespace lcaknap::util
