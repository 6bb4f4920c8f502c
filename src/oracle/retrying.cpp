#include "oracle/retrying.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lcaknap::oracle {

std::vector<double> backoff_sleep_buckets() {
  return metrics::Histogram::exponential_buckets(1.0, 4.0, 11);
}

namespace {

void validate(const RetryConfig& config) {
  if (config.max_attempts < 1) {
    throw std::invalid_argument("RetryingAccess: max_attempts must be >= 1");
  }
  if (config.max_backoff_us < config.base_backoff_us) {
    throw std::invalid_argument(
        "RetryingAccess: max_backoff_us must be >= base_backoff_us");
  }
  if (!(config.backoff_multiplier >= 1.0) ||
      !std::isfinite(config.backoff_multiplier)) {
    throw std::invalid_argument(
        "RetryingAccess: backoff_multiplier must be finite and >= 1");
  }
  if (!(config.retry_budget_ratio >= 0.0) ||
      !std::isfinite(config.retry_budget_ratio)) {
    throw std::invalid_argument(
        "RetryingAccess: retry_budget_ratio must be finite and >= 0");
  }
}

}  // namespace

RetryingAccess::RetryingAccess(const InstanceAccess& inner, const RetryConfig& config,
                               util::Clock& clock, metrics::Registry& registry)
    : inner_(&inner),
      config_(config),
      clock_(&clock),
      jitter_(util::mix64(config.jitter_seed)),
      retries_total_(&registry.counter(
          "oracle_retries_total",
          "Oracle call attempts absorbed by the client-side retry policy")),
      budget_exhausted_total_(&registry.counter(
          "oracle_retry_budget_exhausted_total",
          "Oracle calls that gave up because the global retry budget was empty")),
      backoff_sleep_us_(&registry.histogram(
          "oracle_backoff_sleep_us",
          "Backoff sleeps between oracle retry attempts, in microseconds",
          backoff_sleep_buckets())) {
  validate(config);
}

bool RetryingAccess::try_spend_budget() const noexcept {
  if (config_.retry_budget_ratio <= 0.0) return true;  // unlimited
  const auto earned = static_cast<std::uint64_t>(
      config_.retry_budget_ratio *
      static_cast<double>(successes_.load(std::memory_order_relaxed)));
  const auto allowance = config_.retry_budget_initial + earned;
  if (budget_spent_.load(std::memory_order_relaxed) >= allowance) return false;
  budget_spent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

template <typename Call>
auto RetryingAccess::with_retries(const Call& call) const -> decltype(call()) {
  const std::uint64_t start_us =
      config_.attempt_timeout_us > 0 ? clock_->now_us() : 0;
  // Decorrelated jitter (AWS-style): each sleep is uniform in
  // [base, prev * multiplier], clamped to max — growth with spread, so
  // synchronized clients de-synchronize instead of thundering together.
  std::uint64_t prev_sleep_us = config_.base_backoff_us;
  for (int attempt = 1;; ++attempt) {
    try {
      auto result = call();
      successes_.fetch_add(1, std::memory_order_relaxed);
      return result;
    } catch (const OracleUnavailable&) {
      if (attempt >= config_.max_attempts) throw;
      if (!try_spend_budget()) {
        budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
        budget_exhausted_total_->inc();
        throw;
      }
      std::uint64_t sleep_us = 0;
      if (config_.base_backoff_us > 0) {
        const double lo = static_cast<double>(config_.base_backoff_us);
        const double hi = std::max(
            lo, static_cast<double>(prev_sleep_us) * config_.backoff_multiplier);
        const auto draw = jitter_draws_.fetch_add(1, std::memory_order_relaxed);
        const double u = jitter_.uniform(/*stream=*/1, draw);
        sleep_us = std::min<std::uint64_t>(
            config_.max_backoff_us,
            static_cast<std::uint64_t>(lo + u * (hi - lo)));
        prev_sleep_us = sleep_us;
      }
      if (config_.attempt_timeout_us > 0 &&
          clock_->now_us() - start_us + sleep_us >= config_.attempt_timeout_us) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        throw;
      }
      if (sleep_us > 0) {
        backoff_sleep_us_->observe(static_cast<double>(sleep_us));
        slept_us_.fetch_add(sleep_us, std::memory_order_relaxed);
        clock_->sleep_us(sleep_us);
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      retries_total_->inc();
    }
  }
}

knapsack::Item RetryingAccess::do_query(std::size_t i) const {
  return with_retries([&] { return inner_->query(i); });
}

WeightedDraw RetryingAccess::do_sample(util::Xoshiro256& rng) const {
  return with_retries([&] { return inner_->weighted_sample(rng); });
}

}  // namespace lcaknap::oracle
