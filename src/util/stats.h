#ifndef LCAKNAP_UTIL_STATS_H
#define LCAKNAP_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// \file stats.h
/// Statistical utilities shared by the reproducibility layer, the tests and
/// the benchmark harness: streaming moments, empirical CDFs/quantiles, the
/// Dvoretzky–Kiefer–Wolfowitz sample-size bound, confidence intervals for
/// Bernoulli rates, and a chi-square goodness-of-fit statistic.

namespace lcaknap::util {

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when fewer than two observations).
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Half-width of a normal-approximation confidence interval on the mean.
  [[nodiscard]] double ci_half_width(double z = 1.96) const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Empirical distribution over a sorted copy of the data.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::span<const double> data);

  /// F̂(x) = fraction of observations <= x.
  [[nodiscard]] double at(double x) const noexcept;
  /// Smallest observation v with F̂(v) >= p (the empirical p-quantile).
  [[nodiscard]] double quantile(double p) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

/// Integer-domain empirical CDF, used by the reproducible-median machinery
/// whose domain is a grid of 2^d integers.
class EmpiricalCdfInt {
 public:
  explicit EmpiricalCdfInt(std::span<const std::int64_t> data);

  /// Histogram CDF over the finite domain [0, counts.size()): `counts[v]`
  /// observations of value v.  The counts become the cumulative array in
  /// place, so time and memory are O(domain) whatever the observation count
  /// — the warm-up counts millions of grid-mapped efficiency samples into a
  /// 2^12-cell domain.  Every readout (at, quantile, size) returns exactly
  /// what the sorted constructor returns for the expanded multiset.
  explicit EmpiricalCdfInt(std::vector<std::size_t> counts);

  [[nodiscard]] double at(std::int64_t x) const noexcept;
  /// Smallest observed value v with F̂(v) >= p; `fallback` when no data.
  [[nodiscard]] std::int64_t quantile(double p, std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  /// Sorted observations (generic constructor) — empty in histogram mode.
  std::vector<std::int64_t> sorted_;
  /// cum_[v] = observations <= v (histogram mode) — empty in sorted mode.
  std::vector<std::size_t> cum_;
  std::size_t n_ = 0;
};

/// DKW inequality: sample size guaranteeing sup_x |F̂(x) - F(x)| <= eps with
/// probability at least 1 - delta.
[[nodiscard]] std::size_t dkw_sample_size(double eps, double delta) noexcept;

/// Wilson-score confidence interval for a Bernoulli success rate.
struct RateInterval {
  double lo;
  double hi;
};
[[nodiscard]] RateInterval wilson_interval(std::size_t successes, std::size_t trials,
                                           double z = 1.96) noexcept;

/// Pearson chi-square statistic for observed counts against expected
/// probabilities (both spans must have equal, positive length).
[[nodiscard]] double chi_square(std::span<const std::size_t> observed,
                                std::span<const double> expected_probs);

}  // namespace lcaknap::util

#endif  // LCAKNAP_UTIL_STATS_H
