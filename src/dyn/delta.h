#ifndef LCAKNAP_DYN_DELTA_H
#define LCAKNAP_DYN_DELTA_H

#include <string>

#include "core/lca_kp.h"
#include "dyn/update.h"
#include "knapsack/instance.h"

/// \file delta.h
/// Delta warm-up: patching `(L(Ĩ), EPS)` across an epoch advance without
/// re-drawing the warm-up's millions of weighted samples.
///
/// The soundness rule (unit-tested in tests/dyn, documented in
/// docs/DYNAMIC.md): both warm-up sweeps draw item indices with probability
/// proportional to *profit* (MaterializedAccess's alias table), the step-1
/// filter keeps an index iff norm_profit > eps², and step 2 keeps only a
/// count per grid efficiency cell.  Hence a batch that leaves the
/// profit vector and the item count unchanged — weight updates, and profit
/// updates writing the value already present — provably leaves every PRF
/// substream's index-draw sequence and both filters unchanged.  For such a
/// batch the epoch-N run is a *replay*: re-read only the distinct indices
/// recorded in the base epoch's `WarmupTrace` (their weights may have
/// changed), rebuild the large records and the grid-cell counts, and
/// complete the run through the exact same tail arithmetic
/// (`LcaKp::complete_run_from_sweeps`).  The replayed run is byte-equal —
/// `run_digest`-equal — to a fresh `run_warmup` of the mutated instance
/// (Lemma 4.9 extended across epochs; pinned by the differential suite and
/// the bench's in-binary gate).
///
/// Everything else — inserts (change n and the profit vector), deletes
/// (tombstones zero a profit), profit changes — re-weights the alias table,
/// so the drawn index sequences change arbitrarily and the trace says
/// nothing about the new epoch: those batches fall back to the full 64-shard
/// `run_warmup`.  The rule is deliberately conservative: it may fall back
/// unnecessarily (e.g. a delete of an item that was never drawn) but never
/// claims a delta it cannot prove.

namespace lcaknap::dyn {

/// The soundness decision for one batch against its base instance.
struct DeltaPlan {
  bool delta_eligible = false;
  /// Why: "weight-only" / "empty-batch" when eligible; the first
  /// disqualifying mutation's reason otherwise.
  std::string reason;
};

/// Decides delta eligibility.  Pure function of (base, batch); does not
/// validate indices (apply_batch does) — an out-of-range mutation is simply
/// reported ineligible here and throws there.
[[nodiscard]] DeltaPlan plan_delta(const knapsack::Instance& base,
                                   const UpdateBatch& batch);

/// Replays a traced warm-up against `lca` (constructed over the *mutated*
/// instance, same config and tape seed as the trace's warm-up).  Cost:
/// O(distinct traced indices) oracle queries, zero weighted samples.
/// Throws std::runtime_error if the trace's invariants do not hold against
/// the new instance (e.g. a traced-large index no longer classifies large) —
/// the caller treats that as "delta unsound" and falls back; it cannot
/// happen for a plan_delta-eligible batch.
[[nodiscard]] core::LcaKpRun replay_delta(const core::LcaKp& lca,
                                          const core::WarmupTrace& trace);

}  // namespace lcaknap::dyn

#endif  // LCAKNAP_DYN_DELTA_H
