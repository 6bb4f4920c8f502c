#ifndef SERVEBENCH_ISOLATION_H
#define SERVEBENCH_ISOLATION_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"
#include "core/lca_kp.h"

/// \file isolation.h
/// Layer isolation loops: the ok answers of a traced phase, replayed in send
/// order on one thread through each layer's public functions with nothing
/// else running.  They time `net::encode`/`decode`, `AnswerCache::get_batch`
/// /`put_batch`, `BatchEval::gather`/`classify` and `LcaKp::answer_from`, and
/// every isolated answer must equal the live one.

namespace servebench {

/// The warm state an epoch was served from.
struct EpochRef {
  const core::LcaKp* lca = nullptr;
  const core::LcaKpRun* run = nullptr;
};
using EpochLookup = std::function<EpochRef(std::uint32_t epoch)>;

/// Adds the `_ns` metrics to `result.layers`; a differing answer is a breach.
void run_isolation(const std::vector<Sample>& samples,
                   const EpochLookup& epoch_of, PhaseResult& result);

}  // namespace servebench

#endif  // SERVEBENCH_ISOLATION_H
