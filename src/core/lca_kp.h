#ifndef LCAKNAP_CORE_LCA_KP_H
#define LCAKNAP_CORE_LCA_KP_H

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/convert_greedy.h"
#include "core/lca.h"
#include "iky/efficiency_domain.h"
#include "oracle/access.h"
#include "util/rng.h"
#include "util/stats.h"

/// \file lca_kp.h
/// Algorithm 2 (LCA-KP), the paper's main positive result (Theorem 4.1): an
/// LCA that, given weighted-sampling access to the instance, provides
/// consistent query access to a (1/2, 6*eps)-approximate Knapsack solution
/// with per-query cost independent of n up to the reproducible-median's mild
/// domain dependence.
///
/// Pipeline of one run (all sampling uses the run's fresh randomness, all
/// rounding/thresholding uses the shared seed):
///  1. draw R̄, keep distinct large items        (Lemma 4.2)           -> L(Ĩ)
///  2. if small mass >= eps: draw Q̄, drop large items, map efficiencies onto
///     the finite grid (Section 4.2), and compute the EPS thresholds with
///     reproducible quantiles                    (Algorithm 1, Lemma 4.6)
///  3. construct Ĩ                               (Ĩ-construction, Section 4)
///  4. CONVERT-GREEDY(Ĩ, EPS)                    (Algorithm 3)
///  5. classify the queried item and answer      (lines 20-24)
///
/// Consistency (Lemma 4.9): steps 4-5 are pure functions of (L(Ĩ), EPS); step
/// 1 collects *all* of L(I) w.h.p., and step 2's thresholds are reproducible,
/// so independent replicas construct the same Ĩ and answer identically.

namespace lcaknap::core {

struct LcaKpConfig {
  /// Approximation parameter; the served solution is (1/2, 6*eps)-approximate.
  double eps = 0.25;
  /// The shared random seed r of Definition 2.2.  Replicas meant to serve the
  /// same solution must share it.
  std::uint64_t seed = 0x5EED;

  /// Efficiency-grid resolution: log2 |X| of Section 4.2's finite domain.
  int domain_bits = 12;
  /// Branching factor of the reproducible median search.
  int branching = 16;

  /// Sampling budgets; 0 means auto.  Auto for `large_samples` follows
  /// Lemma 4.2 (delta = eps^2, amplified); auto for `quantile_samples` uses a
  /// calibrated allocation (see resolve_params) rather than the paper's
  /// worst-case constants, whose concrete values are astronomically large —
  /// the benches measure the consistency actually achieved.
  std::size_t large_samples = 0;
  std::size_t quantile_samples = 0;
  /// Hard cap applied to the auto quantile budget to keep runs affordable.
  std::size_t max_quantile_samples = 2'000'000;

  /// Reproducible-quantile parameters; 0 means auto.  Paper values are
  /// tau = eps^2/5, rho = eps^2/18, beta = rho/2 (Algorithm 2, line 5); the
  /// calibrated defaults relax tau/rho to eps-scale for affordability.
  double tau = 0.0;
  double rho = 0.0;
  double beta = 0.0;
  /// Use the paper's literal tau/rho/beta instead of the calibrated ones
  /// (sampling budgets stay capped; expect lower measured consistency than
  /// theory because the paper's sample sizes are not affordable).
  bool paper_constants = false;

  /// Ablation: replace the reproducible quantiles with plain empirical
  /// quantiles (the [IKY12] estimator).  Demonstrates the inconsistency the
  /// paper identifies as the "major issue" in Section 1.1.
  bool reproducible_quantiles = true;

  /// Default thread count for the sharded warm-up (`run_warmup`); 0 means
  /// hardware concurrency.  Any value produces bit-identical (L(Ĩ), EPS):
  /// the sample draws are pinned to fixed PRF substreams per shard, not to
  /// threads (see run_warmup).
  std::size_t warmup_threads = 1;
};

/// Fully resolved numeric parameters of a run (for reporting).
struct LcaKpParams {
  double tau = 0.0;
  double rho = 0.0;
  double beta = 0.0;
  std::size_t large_samples = 0;
  std::size_t quantile_samples = 0;
  int t_max = 0;  ///< upper bound floor(1/q) used for query-id layout
};

/// Sufficient statistics of one warm-up's sample outcome, recorded when
/// `run_warmup` is handed a trace out-param.  The key fact (src/dyn relies
/// on it): both sweeps draw indices profit-proportionally, the step-1 filter
/// keeps an index iff norm_profit > eps^2, and step 2 keeps only a count per
/// grid cell — so the *multiset of drawn indices* determines the run.
/// A mutation batch that provably leaves the profit vector (and n) unchanged
/// leaves every PRF-substream draw sequence and both filters unchanged, and
/// the run for the mutated instance can be replayed from this trace by
/// re-reading only the distinct drawn indices (see dyn::replay_delta) —
/// O(distinct indices) instead of O(samples) weighted draws.
struct WarmupTrace {
  std::uint64_t tape_seed = 0;
  /// Distinct step-1 draws classified large (norm_profit > eps^2), sorted by
  /// index — exactly the post-merge contents of the large-sweep dedup table.
  std::vector<std::size_t> large_drawn;
  /// Whether step 2 ran (the small-mass gate `1 - large_mass >= eps` passed).
  bool quantile_swept = false;
  /// Step-2 draws that passed the line-7 small filter, as sorted
  /// (index, draw count) pairs.  Counts suffice: the ECDF is order-blind.
  /// Recording keeps one index per kept draw until the shards merge, so a
  /// traced warm-up's memory still grows with `quantile_samples`; an
  /// untraced one keeps only the grid-cell counts.
  std::vector<std::pair<std::size_t, std::uint64_t>> quantile_draws;
};

/// The outcome of one pipeline execution.  `answer_from` evaluates the
/// membership rule; everything else is diagnostics for the harnesses.
struct LcaKpRun {
  // Membership rule (the LCA's entire "state" about the solution).
  std::unordered_set<std::size_t> index_large;
  std::int64_t e_small_grid = -1;  ///< grid threshold, -1 = no small items
  bool singleton = false;
  bool degenerate = false;

  // Diagnostics.
  double large_mass = 0.0;
  double q = 0.0;
  int t = 0;
  std::vector<std::int64_t> thresholds_grid;  ///< EPS on the grid
  std::vector<double> thresholds;             ///< EPS as efficiencies
  std::uint64_t samples_used = 0;
  std::size_t tilde_size = 0;
};

class LcaKp final : public Lca {
 public:
  /// `access` must outlive this object.
  LcaKp(const oracle::InstanceAccess& access, const LcaKpConfig& config);

  /// One memoryless run: executes the full pipeline, then answers for `i`.
  [[nodiscard]] bool answer(std::size_t i, util::Xoshiro256& sample_rng) const override;
  [[nodiscard]] std::string name() const override { return "lca-kp"; }

  /// Executes the pipeline once (one replica / one run), without answering.
  [[nodiscard]] LcaKpRun run_pipeline(util::Xoshiro256& sample_rng) const;

  /// Fixed shard count of the parallel warm-up.  A constant (never derived
  /// from the thread count) so that every thread count replays the same
  /// shard → substream layout.
  static constexpr std::size_t kWarmupShards = 64;

  /// Deterministic sharded warm-up: the Theorem 4.1 one-time pipeline run,
  /// parallelized without giving up Lemma 4.9's consistency.  The Lemma 4.2
  /// large-item sweep and the quantile-sample draw are split over
  /// `kWarmupShards` shards; shard s draws from its own fresh-randomness
  /// substream `PRF(tape_seed)(phase, s)` and shard results are merged in
  /// shard order, so the produced (L(Ĩ), EPS) — and therefore every served
  /// answer — is a pure function of `tape_seed` and the shared seed,
  /// independent of `threads`.  `threads` = 0 uses `config().warmup_threads`
  /// (itself 0 = hardware concurrency); shards run on a pool owned for the
  /// duration of the call.
  ///
  /// Note this draws a *different* (but equally fresh) sample sequence than
  /// `run_pipeline` on a single tape; both satisfy Theorem 4.1, and replicas
  /// that must serve identical answers share `tape_seed` as they previously
  /// shared the tape.
  [[nodiscard]] LcaKpRun run_warmup(std::uint64_t tape_seed,
                                    std::size_t threads = 0,
                                    WarmupTrace* trace = nullptr) const;

  /// Completes a run from already-collected sweep results: applies the
  /// step-2 small-mass gate, derives q/t, reads the EPS thresholds off the
  /// small draws' grid-cell counts, and finalizes (steps 3-4).  `run_pipeline`
  /// and `run_warmup` return through it, and so does the delta-warm-up replay
  /// (src/dyn) — one tail, so a replay cannot drift from a fresh warm-up's
  /// digest.  `large` must be sorted by index with `large_mass` its
  /// accumulated norm-profit mass (in that order).  `cells` holds one count
  /// per cell of `domain()` when the gate passes (it becomes the ECDF's
  /// cumulative array in place) and is ignored otherwise.
  [[nodiscard]] LcaKpRun complete_run_from_sweeps(
      std::span<const iky::NormLargeItem> large, double large_mass,
      std::vector<std::size_t> cells) const;

  /// Answers "is item i in C?" from a finished run.  Costs exactly one query
  /// to the instance (lines 20-24 read item i).
  [[nodiscard]] bool answer_from(const LcaKpRun& run, std::size_t i) const;

  /// Everything an independent auditor needs to replay one answer offline:
  /// the item contents as witnessed at evaluation time plus which branch of
  /// the membership rule (lines 20-24) fired.  An answer, its witness, and
  /// the warm state `(L(Ĩ), EPS)` together are a checkable claim — the
  /// certificate layer (src/cert) serializes exactly this.
  struct AnswerWitness {
    std::int64_t profit = 0;  ///< raw item profit as read from the oracle
    std::int64_t weight = 0;  ///< raw item weight as read from the oracle
    bool large = false;       ///< took the large branch: norm_profit > eps^2
    bool answer = false;
  };

  /// `answer_from` that also captures the witness; same single oracle query,
  /// bit-identical answer (the witness is a byproduct of the evaluation the
  /// plain path already performs, not a second evaluation).
  [[nodiscard]] bool answer_with_witness(const LcaKpRun& run, std::size_t i,
                                         AnswerWitness& witness) const;

  /// Lines 20-24 on contents already read from the oracle: the witness (and
  /// answer) for item `i` holding `item`.  No oracle access.  This is what
  /// `answer_with_witness` runs after its oracle read, and the batch path
  /// (`BatchEval::classify`) calls it per lane, so batch and per-request
  /// answers are one code path.
  [[nodiscard]] AnswerWitness witness_from(const LcaKpRun& run, std::size_t i,
                                           const knapsack::Item& item) const;

  /// The membership decision given an item's contents (no oracle access;
  /// used by MAPPING-GREEDY and the offline evaluators).
  [[nodiscard]] bool decide(const LcaKpRun& run, std::size_t index,
                            double norm_profit, double efficiency) const;

  [[nodiscard]] const LcaKpConfig& config() const noexcept { return config_; }
  [[nodiscard]] const iky::EfficiencyDomain& domain() const noexcept { return domain_; }
  [[nodiscard]] const LcaKpParams& params() const noexcept { return params_; }
  [[nodiscard]] const oracle::InstanceAccess& access() const noexcept { return *access_; }

 private:
  /// Step 2's tail (lines 8-14): the EPS thresholds read off the ECDF of the
  /// small draws' grid efficiencies (expects run.q / run.t already set).
  void compute_thresholds(LcaKpRun& run, const util::EmpiricalCdfInt& ecdf) const;
  /// Steps 3-4: construct Ĩ and convert its greedy into the membership rule.
  void finalize_run(LcaKpRun& run,
                    std::span<const iky::NormLargeItem> large) const;

  const oracle::InstanceAccess* access_;
  LcaKpConfig config_;
  LcaKpParams params_;
  iky::EfficiencyDomain domain_;
  util::Prf prf_;
};

/// Resolves the auto fields of a config (exposed for tests and benches).
[[nodiscard]] LcaKpParams resolve_params(const LcaKpConfig& config);

/// Canonical 64-bit digest of a run's served state (L(Ĩ), EPS): the sorted
/// large-item indices, the small-item rule (e_small_grid, singleton,
/// degenerate), and the grid thresholds — exactly the state Lemma 4.9 says
/// the answers are a pure function of.  Two runs with equal digests serve
/// identical answers; the determinism suite pins digest equality across
/// `warmup_threads` and the warm-up bench reports it.
[[nodiscard]] std::uint64_t run_digest(const LcaKpRun& run);

}  // namespace lcaknap::core

#endif  // LCAKNAP_CORE_LCA_KP_H
