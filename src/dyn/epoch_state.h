#ifndef LCAKNAP_DYN_EPOCH_STATE_H
#define LCAKNAP_DYN_EPOCH_STATE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/lca_kp.h"
#include "dyn/delta.h"
#include "dyn/update.h"
#include "knapsack/instance.h"
#include "metrics/metrics.h"
#include "oracle/access.h"

/// \file epoch_state.h
/// `EpochedState`: the evolving instance and its warm state, versioned by
/// epoch.  Each epoch is an immutable bundle — instance, oracle access, the
/// LCA over it, and a `shared_ptr<const LcaKpRun>` — swapped atomically
/// under a small mutex on advance.  Readers copy the current epoch pointer
/// and keep serving from it; they never block on an advance, and an epoch
/// stays alive as long as any reader still holds it (in-flight requests
/// admitted under epoch N legally complete with epoch-N answers after the
/// advance to N+1; the served epoch is what gets attributed downstream).
///
/// `advance` applies one `UpdateBatch` and chooses the cheap path when the
/// soundness rule allows (plan_delta/replay_delta, O(distinct traced
/// indices)) and the full 64-shard `run_warmup` otherwise.  The base
/// `WarmupTrace` stays valid across any chain of delta advances (profits
/// never change on that path) and is re-recorded on every re-warm-up.
///
/// The next epoch's instance shares every storage chunk the batch does not
/// touch, and on the cheap path its access shares the base epoch's alias
/// table (the profit vector is unchanged), so a delta epoch costs what its
/// batch changed rather than O(n).

namespace lcaknap::dyn {

struct EpochConfig {
  core::LcaKpConfig lca;
  /// Warm-up tape seed; replicas serving identical answers share it.
  std::uint64_t tape_seed = 1;
  /// Warm-up threads (0 = config.lca.warmup_threads semantics).
  std::size_t warmup_threads = 0;
  /// Paranoid mode: after every delta advance, also run the full warm-up of
  /// the mutated instance over an alias table built for the check, and
  /// require digest equality (the Lemma 4.9 contract, checked live).
  /// Expensive — for tests, drills, and benches.
  bool verify_digest = false;
};

/// What one advance did, for operators and benches.
struct AdvanceReport {
  std::uint64_t epoch_id = 0;
  bool delta = false;        ///< took the replay path (vs full re-warm-up)
  std::string reason;        ///< plan_delta reason, or the fallback cause
  std::size_t mutations = 0;
  std::uint64_t digest = 0;  ///< run_digest of the new epoch's warm state
};

class EpochedState {
 public:
  /// One immutable epoch.  Members are ordered so destruction tears down
  /// dependents first (lca references access references instance).
  struct Epoch {
    std::uint64_t epoch_id = 0;
    std::unique_ptr<const knapsack::Instance> instance;
    std::unique_ptr<const oracle::MaterializedAccess> access;
    std::unique_ptr<const core::LcaKp> lca;
    std::shared_ptr<const core::LcaKpRun> run;
    std::uint64_t digest = 0;
  };

  /// Warms epoch 0 from `base` (traced, so the first advance can replay).
  EpochedState(knapsack::Instance base, const EpochConfig& config,
               metrics::Registry& registry);

  /// The current epoch; callers hold the returned pointer for as long as
  /// they serve from it.
  [[nodiscard]] std::shared_ptr<const Epoch> current() const;
  [[nodiscard]] std::uint64_t current_epoch_id() const;

  /// Applies one batch and installs the next epoch.  Serialized; concurrent
  /// readers keep serving the previous epoch until the swap.  Throws
  /// std::invalid_argument on a non-monotone epoch id or an invalid batch,
  /// and std::logic_error if `verify_digest` catches a delta/fresh mismatch
  /// (a soundness-rule bug — never expected).
  AdvanceReport advance(const UpdateBatch& batch);

 private:
  EpochConfig config_;
  core::WarmupTrace trace_;  ///< of the last full warm-up; guarded by advance_mutex_

  mutable std::mutex mutex_;  ///< guards current_
  std::shared_ptr<const Epoch> current_;
  std::mutex advance_mutex_;  ///< serializes advance()

  metrics::Counter* advances_delta_;
  metrics::Counter* advances_rewarm_;
  metrics::Counter* mutations_insert_;
  metrics::Counter* mutations_delete_;
  metrics::Counter* mutations_profit_;
  metrics::Counter* mutations_weight_;
  metrics::Gauge* epoch_gauge_;
  metrics::Histogram* advance_us_;
};

}  // namespace lcaknap::dyn

#endif  // LCAKNAP_DYN_EPOCH_STATE_H
