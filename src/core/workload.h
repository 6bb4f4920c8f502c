#ifndef LCAKNAP_CORE_WORKLOAD_H
#define LCAKNAP_CORE_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

/// \file workload.h
/// Synthetic query traces (item indices) for replaying traffic through the
/// serving engine: uniform, Zipf-skewed, hotspot, or a recorded request log.
/// Every shape is deterministic per seed.

namespace lcaknap::core {

struct WorkloadConfig {
  enum class Shape {
    kUniform,  ///< every item equally likely
    kZipf,     ///< rank-skewed: item ranks drawn with P(r) ∝ 1/r^s
    kHotspot,  ///< `hotspot_fraction` of traffic hits `hotspot_items` items
    kTrace,    ///< replay a recorded request log (util::request_trace)
  };
  Shape shape = Shape::kUniform;
  std::size_t queries = 10'000;
  double zipf_s = 1.1;
  double hotspot_fraction = 0.9;
  std::size_t hotspot_items = 16;
  std::uint64_t seed = 1;
  /// `kTrace`: path of the recorded log (`lcaknap-trace 1` format, e.g. from
  /// `lcaknap_loadgen --trace-record`).  Items are replayed in recorded
  /// order, mapped `% n_items`; the replay is truncated to `queries` entries
  /// when the trace is longer and wraps around when it is shorter, so every
  /// shape produces exactly `queries` entries.  Timestamps and tenants are
  /// carried by the wire-level replayer (`--trace-replay`), not here — this
  /// generator yields item sequences only.
  std::string trace_path;
};

/// Generates the query trace (item indices) for an instance of n items.
[[nodiscard]] std::vector<std::size_t> generate_workload(std::size_t n_items,
                                                         const WorkloadConfig& config);

}  // namespace lcaknap::core

#endif  // LCAKNAP_CORE_WORKLOAD_H
