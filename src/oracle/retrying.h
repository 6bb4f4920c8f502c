#ifndef LCAKNAP_ORACLE_RETRYING_H
#define LCAKNAP_ORACLE_RETRYING_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "metrics/metrics.h"
#include "oracle/access.h"
#include "util/virtual_clock.h"

/// \file retrying.h
/// Client-side retry policy for the access layer.  In the distributed
/// deployments that motivate LCAs, the "instance" is a remote service; a
/// replica must tolerate transient failures (`OracleUnavailable`) without
/// breaking consistency.  `RetryingAccess` retries per a `RetryConfig`:
/// bounded attempts, exponential backoff with decorrelated jitter, a
/// per-call retry-time cap, and a global retry budget.  Faults to retry
/// come from `fault::ChaosAccess` (src/fault/chaos.h); tests verify that
/// retrying restores exactness and that LCA answers are unaffected (a
/// fail-stop fires before the caller's sampling tape is consumed).
///
/// Absorbed retries increment `oracle_retries_total` — the fleet-level
/// view of the same events `retries_performed()` reports locally.
///
/// Thread safety (audited for the serving engine's worker pool): safe for
/// concurrent callers.  `RetryingAccess` keeps only atomic counters and a
/// stateless jitter Prf; registry counters are lock-free.  The one
/// single-owner object in any call is the *caller's* sampling tape — the
/// `Xoshiro256&` passed to `weighted_sample` mutates on every draw and must
/// not be shared across threads (see access.h).
/// tests/oracle/test_concurrent_access.cpp hammers the stack.

namespace lcaknap::oracle {

/// Client-side retry policy.  Validated by the constructor (throws
/// std::invalid_argument on nonsense values); the defaults mean immediate
/// retries, no budget, no time cap.
struct RetryConfig {
  /// Total tries per call (1 = no retries).  Must be >= 1.
  int max_attempts = 16;
  /// First backoff sleep; 0 disables backoff entirely (immediate retries).
  std::uint64_t base_backoff_us = 0;
  /// Ceiling for any single backoff sleep.  Must be >= base_backoff_us.
  std::uint64_t max_backoff_us = 100'000;
  /// Growth factor for decorrelated jitter: each sleep is drawn uniformly in
  /// [base, previous * multiplier], clamped to max.  Must be >= 1.
  double backoff_multiplier = 3.0;
  /// Per-call cap on time spent retrying (on the injected clock): once a
  /// call's elapsed time plus its next sleep would exceed this, give up and
  /// rethrow.  0 = no cap.
  std::uint64_t attempt_timeout_us = 0;
  /// Global retry budget: each *successful* call earns this fraction of a
  /// retry token; a retry spends one.  When the purse is empty the failure
  /// is rethrown immediately — a fleet-protection valve against retry
  /// storms.  0 = unlimited retries.  Must be >= 0 and finite.
  double retry_budget_ratio = 0.0;
  /// Tokens pre-funded at construction, so startup failures can retry
  /// before any call has succeeded.
  std::uint64_t retry_budget_initial = 16;
  /// Seed of the deterministic jitter tape (a Prf indexed by a global retry
  /// counter — never the caller's sampling tape).
  std::uint64_t jitter_seed = 0x7E77;
};

/// Decorator that retries the wrapped oracle per a `RetryConfig`, then
/// rethrows.  Sleeps (if backoff is on) run on the injected `util::Clock`,
/// so tests exercise the full policy over a VirtualClock with no real
/// waiting; each sleep is observed into `oracle_backoff_sleep_us` and
/// budget-exhausted giveups increment `oracle_retry_budget_exhausted_total`.
class RetryingAccess final : public InstanceAccess {
 public:
  /// `inner` and `clock` must outlive this object.
  RetryingAccess(const InstanceAccess& inner, const RetryConfig& config,
                 util::Clock& clock = util::system_clock(),
                 metrics::Registry& registry = metrics::global_registry());

  [[nodiscard]] std::size_t size() const noexcept override { return inner_->size(); }
  [[nodiscard]] std::int64_t capacity() const noexcept override {
    return inner_->capacity();
  }
  [[nodiscard]] std::int64_t total_profit() const noexcept override {
    return inner_->total_profit();
  }
  [[nodiscard]] std::int64_t total_weight() const noexcept override {
    return inner_->total_weight();
  }

  [[nodiscard]] std::uint64_t retries_performed() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Calls that gave up early because the retry budget was empty.
  [[nodiscard]] std::uint64_t budget_exhausted() const noexcept {
    return budget_exhausted_.load(std::memory_order_relaxed);
  }
  /// Calls that gave up early against `attempt_timeout_us`.
  [[nodiscard]] std::uint64_t timed_out() const noexcept {
    return timeouts_.load(std::memory_order_relaxed);
  }
  /// Total (virtual or real) microseconds slept in backoff.
  [[nodiscard]] std::uint64_t backoff_slept_us() const noexcept {
    return slept_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const RetryConfig& retry_config() const noexcept { return config_; }

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override;
  [[nodiscard]] WeightedDraw do_sample(util::Xoshiro256& rng) const override;

 private:
  template <typename Call>
  auto with_retries(const Call& call) const -> decltype(call());
  /// Spends one budget token if the purse allows another retry.  Accounting
  /// is relaxed-atomic: exact single-threaded, and never more than one
  /// token per concurrent caller optimistic under contention — the
  /// conservation hammer in tests/fault/ bounds the slack.
  [[nodiscard]] bool try_spend_budget() const noexcept;

  const InstanceAccess* inner_;
  RetryConfig config_;
  util::Clock* clock_;
  util::Prf jitter_;
  metrics::Counter* retries_total_;
  metrics::Counter* budget_exhausted_total_;
  metrics::Histogram* backoff_sleep_us_;
  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> successes_{0};
  mutable std::atomic<std::uint64_t> budget_spent_{0};
  mutable std::atomic<std::uint64_t> budget_exhausted_{0};
  mutable std::atomic<std::uint64_t> timeouts_{0};
  mutable std::atomic<std::uint64_t> slept_us_{0};
  mutable std::atomic<std::uint64_t> jitter_draws_{0};
};

/// Bucket bounds for `oracle_backoff_sleep_us` (1 us .. ~1 s, powers of 4).
[[nodiscard]] std::vector<double> backoff_sleep_buckets();

}  // namespace lcaknap::oracle

#endif  // LCAKNAP_ORACLE_RETRYING_H
