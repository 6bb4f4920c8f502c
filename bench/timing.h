#ifndef LCAKNAP_BENCH_TIMING_H
#define LCAKNAP_BENCH_TIMING_H

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

/// \file timing.h
/// The benches' one median: wall times are read as the median of repeats,
/// never as a single run or the best one.

namespace lcaknap::bench {

/// Median of `values` (the upper one for an even count); `values` must not
/// be empty.
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Wall time of one call of `fn`, in milliseconds.
inline double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median wall time of `reps` calls of `fn`, in milliseconds.
inline double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) times.push_back(time_ms(fn));
  return median(std::move(times));
}

}  // namespace lcaknap::bench

#endif  // LCAKNAP_BENCH_TIMING_H
