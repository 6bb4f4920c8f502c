#ifndef LCAKNAP_ORACLE_ACCESS_H
#define LCAKNAP_ORACLE_ACCESS_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "knapsack/instance.h"
#include "util/alias_sampler.h"
#include "util/rng.h"

/// \file access.h
/// The access model.  Algorithms never touch an `Instance` directly; they go
/// through `InstanceAccess`, which provides exactly the two operations the
/// paper's model grants and *counts every use*:
///
///  * `query(i)` — per-index query access (Definition 2.2);
///  * `weighted_sample()` — an item drawn with probability proportional to
///    its profit (the [IKY12] weighted-sampling access of Section 4).
///
/// Instance metadata that the model treats as known — the number of items n,
/// the capacity K, and the normalization constants (total profit/weight are
/// both normalized to 1 in Section 4) — is available without being counted.
///
/// The *canonical* read-out path for these costs is the metrics registry fed
/// by `InstrumentedAccess` (see instrumented.h): `oracle_queries_total` and
/// `oracle_samples_total` are what the benches, the CLI's `--metrics`
/// exporters, and docs/OBSERVABILITY.md report.  The per-object atomics below
/// (`query_count` / `sample_count` / `access_count`) remain as shims — handy
/// for single-oracle tests and kept bit-equal to the registry by
/// tests/oracle/instrumented_test.cpp.

namespace lcaknap::oracle {

/// One weighted-sampling draw: the item's index and its contents.
struct WeightedDraw {
  std::size_t index = 0;
  knapsack::Item item;
};

/// Thrown by unreliable oracles (see fault/chaos.h) to model a transient failure
/// of the (conceptually remote) input service.
class OracleUnavailable : public std::exception {
 public:
  [[nodiscard]] const char* what() const noexcept override {
    return "oracle temporarily unavailable";
  }
};

class InstanceAccess {
 public:
  virtual ~InstanceAccess() = default;

  // --- free metadata -----------------------------------------------------
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] virtual std::int64_t capacity() const noexcept = 0;
  [[nodiscard]] virtual std::int64_t total_profit() const noexcept = 0;
  [[nodiscard]] virtual std::int64_t total_weight() const noexcept = 0;

  [[nodiscard]] double norm_capacity() const noexcept {
    return static_cast<double>(capacity()) / static_cast<double>(total_weight());
  }
  /// Normalized views of a previously queried item (no extra query cost).
  [[nodiscard]] double norm_profit(const knapsack::Item& it) const noexcept {
    return static_cast<double>(it.profit) / static_cast<double>(total_profit());
  }
  [[nodiscard]] double norm_weight(const knapsack::Item& it) const noexcept {
    return static_cast<double>(it.weight) / static_cast<double>(total_weight());
  }
  /// Normalized efficiency p/w; +infinity for zero-weight items.
  [[nodiscard]] double efficiency(const knapsack::Item& it) const noexcept;

  // --- counted access ----------------------------------------------------
  /// Reveals item i; one unit of query cost.
  [[nodiscard]] knapsack::Item query(std::size_t i) const {
    queries_.fetch_add(1, std::memory_order_relaxed);
    return do_query(i);
  }
  /// Draws an item with probability proportional to its profit; one unit of
  /// sample cost.  `rng` is the caller's fresh-randomness tape and is
  /// single-owner: it mutates on every draw, so concurrent callers (e.g.
  /// serving-engine workers) must each pass their own tape.  The access
  /// object itself is safe to share — counting is atomic and
  /// implementations keep any internal randomness behind their own locks.
  [[nodiscard]] WeightedDraw weighted_sample(util::Xoshiro256& rng) const {
    samples_.fetch_add(1, std::memory_order_relaxed);
    return do_sample(rng);
  }

  // --- accounting ----------------------------------------------------------
  [[nodiscard]] std::uint64_t query_count() const noexcept {
    return queries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sample_count() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }
  /// Total accesses of either kind (the "queries to the instance" of the
  /// paper's lower bounds, which charge weighted samples and index queries
  /// alike).
  [[nodiscard]] std::uint64_t access_count() const noexcept {
    return query_count() + sample_count();
  }
  void reset_counters() const noexcept {
    queries_.store(0, std::memory_order_relaxed);
    samples_.store(0, std::memory_order_relaxed);
  }

 protected:
  [[nodiscard]] virtual knapsack::Item do_query(std::size_t i) const = 0;
  [[nodiscard]] virtual WeightedDraw do_sample(util::Xoshiro256& rng) const = 0;

 private:
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> samples_{0};
};

/// Access backed by an in-memory Instance; weighted sampling via an alias
/// table over the profits (O(1) per draw).  The table is immutable and held
/// by shared pointer, so accesses over instances with the same profit vector
/// (consecutive epochs of a weight-only update, src/dyn) can share one.
class MaterializedAccess final : public InstanceAccess {
 public:
  /// Builds the alias table over the instance's profits.  The instance must
  /// outlive this access object.
  explicit MaterializedAccess(const knapsack::Instance& instance);
  /// Samples through `table_owner`'s alias table instead of building one.
  /// The caller promises that `instance` has the same profit vector as
  /// `table_owner`'s instance; only the item count is checked (throws
  /// std::invalid_argument on a mismatch).  Draws are then exactly those a
  /// freshly built table would give.
  MaterializedAccess(const knapsack::Instance& instance,
                     const MaterializedAccess& table_owner);

  [[nodiscard]] std::size_t size() const noexcept override;
  [[nodiscard]] std::int64_t capacity() const noexcept override;
  [[nodiscard]] std::int64_t total_profit() const noexcept override;
  [[nodiscard]] std::int64_t total_weight() const noexcept override;

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override;
  [[nodiscard]] WeightedDraw do_sample(util::Xoshiro256& rng) const override;

 private:
  const knapsack::Instance* instance_;
  std::shared_ptr<const util::AliasSampler> sampler_;
};

}  // namespace lcaknap::oracle

#endif  // LCAKNAP_ORACLE_ACCESS_H
