#ifndef SERVEBENCH_WORKLOADS_H
#define SERVEBENCH_WORKLOADS_H

#include <cstddef>

#include "common.h"

/// \file workloads.h
/// The three workloads.  Each call runs `setups_before(setups)` independent
/// set-ups (the last one serves), one second of warm-up traffic, and a
/// measured window of `options.seconds`, then verifies every ok answer and
/// the conservation laws, and then times the remaining set-ups.  With
/// `traced` set, the stack also counts oracle reads, the benchmark times its
/// own calls into the layers, and the isolation loops run afterwards; the
/// per-layer metrics land in `PhaseResult::layers`.

namespace servebench {

/// Closed-loop TCP traffic against an in-process `net::Server` +
/// `TenantRouter`: `connections` client threads, `window` frames in flight
/// each, over one uncorrelated instance of 1,000,000 items.
struct NetShape {
  std::size_t connections = 1;
  std::size_t window = 1;
  bool zipf = false;  ///< zipf(1.1) items; otherwise uniform
};

[[nodiscard]] PhaseResult run_net(const Options& options, const NetShape& shape,
                                  bool traced, int setups);

/// Open-loop callback traffic into an in-process `ServeEngine` with
/// certification on, while an updater thread advances the instance epoch
/// every 250 ms.
[[nodiscard]] PhaseResult run_churn(const Options& options, bool traced,
                                    int setups);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H
