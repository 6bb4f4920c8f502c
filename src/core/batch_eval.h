#ifndef LCAKNAP_CORE_BATCH_EVAL_H
#define LCAKNAP_CORE_BATCH_EVAL_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/lca_kp.h"

/// \file batch_eval.h
/// Struct-of-arrays batch evaluation of the steady-state answer path
/// (Algorithm 2, lines 20-24).
///
/// Every answer is a pure function of the shared warm state `(L(Ĩ), EPS)`
/// and one queried item — there are no cross-query dependencies (the same
/// per-query independence Fast LCAs and Reingold–Vardi exploit), so the
/// serving engine evaluates the cache misses of a whole dispatch group in
/// two stages:
///
///  1. **gather** — one counted `access.query(i)` per lane (the access-model
///     cost is identical to `LcaKp::answer_from`), landing the raw item
///     contents in the `profits`/`weights` witness columns;
///  2. **classify** — per lane, `LcaKp::witness_from` on the gathered
///     contents: the same function `answer_with_witness` runs after its
///     oracle read, so a batch answer equals the per-request answer by
///     construction.
///
/// Fault isolation: `gather` catches `oracle::OracleUnavailable` **per
/// lane** (`LaneStatus::kUnavailable`) so one dead item cannot poison its
/// batch siblings; the serving engine maps failed lanes onto its existing
/// degrade/error outcomes.

namespace lcaknap::core {

/// Per-lane gather outcome.
enum class LaneStatus : std::uint8_t {
  kOk = 0,           ///< columns hold the item; classify fills the answer
  kUnavailable = 1,  ///< oracle threw OracleUnavailable for this lane
  kError = 2,        ///< oracle threw something else for this lane
};

/// Struct-of-arrays scratch buffers, sized by `resize` and reused across
/// batches: after the first batch at the high-water size, the steady-state
/// path performs zero heap allocations, like `LcaKp::answer_from`
/// (tests/core/test_query_alloc.cpp pins both).
struct BatchScratch {
  std::vector<std::int64_t> profits;   ///< witness: raw profit per lane
  std::vector<std::int64_t> weights;   ///< witness: raw weight per lane
  std::vector<LaneStatus> status;      ///< gather outcome per lane
  std::vector<std::uint8_t> large;     ///< classify: 1 = norm_profit > eps²
  std::vector<std::uint8_t> answers;   ///< classify: membership decision
  std::size_t size = 0;                ///< active lane count

  /// Grows every column to `n` lanes (never shrinks capacity).
  void resize(std::size_t n);
};

class BatchEval {
 public:
  /// Answers against `run`.  Both `lca` and `run` must outlive this object;
  /// construction does no work, so callers may build one per batch.
  BatchEval(const LcaKp& lca, const LcaKpRun& run) : lca_(&lca), run_(&run) {}

  /// Gather stage: one counted oracle query per lane.  Per-lane fault
  /// isolation as documented above; `scratch` is resized to `items.size()`.
  void gather(std::span<const std::size_t> items, BatchScratch& scratch) const;

  /// Classify stage: `LcaKp::witness_from` per lane.  Lanes whose status is
  /// not kOk get `large = answers = 0`.
  void classify(std::span<const std::size_t> items,
                BatchScratch& scratch) const;

  /// gather + classify.
  void evaluate(std::span<const std::size_t> items,
                BatchScratch& scratch) const {
    gather(items, scratch);
    classify(items, scratch);
  }

 private:
  const LcaKp* lca_;
  const LcaKpRun* run_;
};

}  // namespace lcaknap::core

#endif  // LCAKNAP_CORE_BATCH_EVAL_H
