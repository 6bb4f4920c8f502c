#include "core/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/request_trace.h"
#include "util/rng.h"

namespace lcaknap::core {

std::vector<std::size_t> generate_workload(std::size_t n_items,
                                           const WorkloadConfig& config) {
  if (n_items == 0) throw std::invalid_argument("generate_workload: no items");
  util::Xoshiro256 rng(config.seed);
  std::vector<std::size_t> trace;
  trace.reserve(config.queries);
  switch (config.shape) {
    case WorkloadConfig::Shape::kUniform: {
      for (std::size_t q = 0; q < config.queries; ++q) {
        trace.push_back(static_cast<std::size_t>(rng.next_below(n_items)));
      }
      break;
    }
    case WorkloadConfig::Shape::kZipf: {
      // Precompute the rank CDF once; ranks map to items through a fixed
      // pseudorandom permutation so the hot set is spread over the index
      // space (as real popularity is).
      if (!(config.zipf_s > 0.0)) {
        throw std::invalid_argument("generate_workload: zipf_s must be > 0");
      }
      std::vector<double> cdf(n_items);
      double total = 0.0;
      for (std::size_t r = 0; r < n_items; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), config.zipf_s);
        cdf[r] = total;
      }
      const util::Prf shuffle(config.seed ^ 0x51AF);
      for (std::size_t q = 0; q < config.queries; ++q) {
        const double u = rng.next_double() * total;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const auto rank = static_cast<std::size_t>(it - cdf.begin());
        trace.push_back(static_cast<std::size_t>(
            shuffle.word(0, static_cast<std::uint64_t>(rank)) % n_items));
      }
      break;
    }
    case WorkloadConfig::Shape::kTrace: {
      if (config.trace_path.empty()) {
        throw std::invalid_argument("generate_workload: trace shape needs a path");
      }
      const auto records = util::load_trace_file(config.trace_path);
      if (records.empty()) {
        throw std::invalid_argument("generate_workload: empty trace: " +
                                    config.trace_path);
      }
      // Replay in recorded order; truncate or wrap to exactly `queries`
      // entries so trace workloads compose with the synthetic shapes.
      const std::size_t count = config.queries > 0 ? config.queries : records.size();
      for (std::size_t q = 0; q < count; ++q) {
        trace.push_back(static_cast<std::size_t>(
            records[q % records.size()].item % n_items));
      }
      break;
    }
    case WorkloadConfig::Shape::kHotspot: {
      if (!(config.hotspot_fraction >= 0.0 && config.hotspot_fraction <= 1.0) ||
          config.hotspot_items == 0) {
        throw std::invalid_argument("generate_workload: bad hotspot parameters");
      }
      const std::size_t hot = std::min(config.hotspot_items, n_items);
      const util::Prf pick(config.seed ^ 0x407);
      for (std::size_t q = 0; q < config.queries; ++q) {
        if (rng.next_double() < config.hotspot_fraction) {
          const auto slot = rng.next_below(hot);
          trace.push_back(static_cast<std::size_t>(pick.word(1, slot) % n_items));
        } else {
          trace.push_back(static_cast<std::size_t>(rng.next_below(n_items)));
        }
      }
      break;
    }
  }
  return trace;
}

}  // namespace lcaknap::core
