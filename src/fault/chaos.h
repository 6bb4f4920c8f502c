#ifndef LCAKNAP_FAULT_CHAOS_H
#define LCAKNAP_FAULT_CHAOS_H

#include <atomic>
#include <cstdint>

#include "fault/plan.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

/// \file chaos.h
/// `ChaosAccess`: an `InstanceAccess` decorator that executes a `FaultPlan`
/// against the wrapped oracle.  It is the one fault injector: a single-rate
/// flaky oracle is a one-phase plan with only `fail_rate` set, e.g.
/// `parse_fault_plan("flaky:0:fail=0.1", seed)`; a dead one is `fail=1`.
///
/// Per call: (1) look up the active phase from elapsed clock time since
/// arming, (2) draw latency / fail-stop / corruption decisions as pure
/// functions of (plan seed, call index) via `util::Prf`, (3) sleep any
/// injected latency on the injected clock, (4) throw `OracleUnavailable`
/// for a fail-stop, else forward to the inner oracle, (5) corrupt the
/// answer if the corruption draw fired.
///
/// Corrupted answers are *wrong but well-formed*: a plausible `Item` (or
/// sample index) whose field values violate one of the instance's metadata
/// invariants — profit above the total, negative weight, weight above the
/// total, or (samples only) an out-of-range index.  `VerifyingAccess`
/// (verifying.h) detects exactly these classes and converts them into
/// retryable failures; a hypothetical corruption respecting every invariant
/// is undetectable by construction and is the cache paranoia audit's
/// department, not this layer's.
///
/// Arming: the engine's one-time warm-up (Theorem 4.1) runs at construction
/// of `ServeEngine`, so benches and the CLI build the chaos layer disarmed,
/// let the warm-up pass cleanly, then `arm()` before replaying traffic.
/// Arming (re)starts the plan's phase schedule at the current clock time.
///
/// Latency model: a latency-only plan is also how benches and examples turn
/// oracle calls into time, and this is the one decorator that does it.  A
/// fixed delay is `lat=N`; a range `lat=MIN..MAX` draws uniformly per call.
/// E15 busy-waits `lat=20` on a spinning clock, armed only for its timed
/// replays; E17 sleeps `lat=25` on the system clock; the `ad_allocation` and
/// `resilient_serving` examples accrue a `lat=` range on a `VirtualClock`
/// and report its `now_us()` as simulated RPC time.
///
/// Metrics: `fault_injected_total{kind="failstop"|"latency"|"corruption"}`
/// and the `fault_plan_phase` gauge (last observed phase index).
///
/// Thread safety: decisions are pure functions of the atomic call counter,
/// the clock is thread-safe by contract, and counters are atomics — safe
/// for concurrent callers, with the usual caveat that the per-thread
/// interleaving of call indices is scheduler-dependent; single-threaded
/// replays are bit-deterministic.

namespace lcaknap::fault {

class ChaosAccess final : public oracle::InstanceAccess {
 public:
  /// `inner` and `clock` must outlive this object.
  ChaosAccess(const oracle::InstanceAccess& inner, FaultPlan plan,
              util::Clock& clock = util::system_clock(), bool armed = true,
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

  /// Starts (or restarts) the fault script at the clock's current time.
  void arm() noexcept;
  /// Pass-through mode: no faults, no counting of plan time.
  void disarm() noexcept { armed_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// Phase active at the clock's current time (kInactive when disarmed).
  [[nodiscard]] std::size_t phase_index() const noexcept;
  static constexpr std::size_t kInactive = static_cast<std::size_t>(-1);

  // Injection accounting (mirrored into `fault_injected_total{kind}`).
  [[nodiscard]] std::uint64_t failstops_injected() const noexcept {
    return failstops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t latencies_injected() const noexcept {
    return latencies_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t corruptions_injected() const noexcept {
    return corruptions_.load(std::memory_order_relaxed);
  }
  /// Calls that reached this decorator while armed (faulted or not).
  [[nodiscard]] std::uint64_t calls_seen() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override;
  [[nodiscard]] oracle::WeightedDraw do_sample(util::Xoshiro256& rng) const override;

 private:
  /// Applies latency + fail-stop for call `n`; returns the active phase.
  const FaultPhase& pre_call(std::uint64_t n) const;
  [[nodiscard]] bool corrupt_due(const FaultPhase& phase, std::uint64_t n) const;
  [[nodiscard]] knapsack::Item corrupt_item(knapsack::Item item,
                                            std::uint64_t n) const;

  const oracle::InstanceAccess* inner_;
  FaultPlan plan_;
  util::Prf prf_;
  util::Clock* clock_;
  std::atomic<bool> armed_;
  std::atomic<std::uint64_t> armed_at_us_{0};
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> failstops_{0};
  mutable std::atomic<std::uint64_t> latencies_{0};
  mutable std::atomic<std::uint64_t> corruptions_{0};
  metrics::Counter* failstops_total_;
  metrics::Counter* latencies_total_;
  metrics::Counter* corruptions_total_;
  metrics::Gauge* phase_gauge_;
};

}  // namespace lcaknap::fault

#endif  // LCAKNAP_FAULT_CHAOS_H
