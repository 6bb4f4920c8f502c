#ifndef LCAKNAP_ORACLE_INSTRUMENTED_H
#define LCAKNAP_ORACLE_INSTRUMENTED_H

#include <cstdint>

#include "metrics/metrics.h"
#include "oracle/access.h"

/// \file instrumented.h
/// The canonical read-out path for access costs.  `InstrumentedAccess` wraps
/// any oracle and records every call into named metric families in a
/// `metrics::Registry`:
///
///   * `oracle_queries_total`  — per-index queries (Definition 2.2);
///   * `oracle_samples_total`  — weighted-sampling draws (Section 4).
///
/// The legacy `InstanceAccess` atomics keep working (the base class still
/// counts every call through this decorator), but they are now shims for
/// single-oracle reads; fleet-level accounting, exporters, and the SLO
/// benches all read the registry.  Placed innermost-but-one in a decorator
/// stack (directly above storage), its counts equal the storage oracle's
/// legacy counters call-for-call — `tests/oracle/instrumented_test.cpp` pins
/// that equivalence.  Simulated access latency is a `fault::ChaosAccess`
/// `lat=` phase (fault/chaos.h).

namespace lcaknap::oracle {

class InstrumentedAccess final : public InstanceAccess {
 public:
  /// `inner` must outlive this object.
  explicit InstrumentedAccess(const InstanceAccess& inner,
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

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override;
  [[nodiscard]] WeightedDraw do_sample(util::Xoshiro256& rng) const override;

 private:
  const InstanceAccess* inner_;
  metrics::Counter* queries_total_;
  metrics::Counter* samples_total_;
};

}  // namespace lcaknap::oracle

#endif  // LCAKNAP_ORACLE_INSTRUMENTED_H
