#ifndef LCAKNAP_METRICS_METRICS_H
#define LCAKNAP_METRICS_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file metrics.h
/// The observability layer: a thread-safe registry of named metric families.
///
/// Every claim in the paper is a statement about query counts — the lower
/// bounds of Theorems 3.2–3.4 bound them from below, Theorem 4.1 from above —
/// so the serving stack surfaces those counts as live metrics instead of
/// ad-hoc per-bench counter reads.  Four instrument kinds:
///
///  * `Counter`   — monotonic u64 (e.g. `oracle_queries_total`);
///  * `Gauge`     — settable double (e.g. `fault_plan_phase`);
///  * `Histogram` — fixed cumulative buckets with count/sum and
///                  interpolated percentile readout (e.g.
///                  `serve_request_latency_us`);
///  * `ScopedTimer` — RAII span that observes its elapsed wall time, in
///                  microseconds, into a histogram.
///
/// Instruments are registered once per (name, labels) pair and live for the
/// registry's lifetime, so callers may cache the returned references.  All
/// mutation paths are lock-free atomics; registration takes a mutex.
/// Exporters (see exporters.h) read a consistent `Snapshot`.

namespace lcaknap::metrics {

/// Sorted key/value label set, e.g. {{"shard", "3"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter.  Increments are relaxed atomics: exact
/// under any interleaving, imposing no ordering (same discipline as the
/// legacy `InstanceAccess` counters they canonicalize).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins double, with an atomic add for accumulation.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram in the Prometheus style: strictly increasing
/// finite upper bounds plus an implicit +Inf bucket.  Observations are
/// lock-free; percentile readout interpolates linearly inside the bucket
/// that crosses the requested rank (the +Inf bucket reports its lower edge).
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept;
  /// Interpolated quantile, p in [0, 1].  Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return upper_bounds_;
  }
  /// Per-bucket (non-cumulative) counts; index upper_bounds().size() is +Inf.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  /// `count` buckets growing geometrically from `start` by `factor`.
  static std::vector<double> exponential_buckets(double start, double factor,
                                                 std::size_t count);
  static std::vector<double> linear_buckets(double start, double width,
                                            std::size_t count);

 private:
  std::vector<double> upper_bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // size bounds+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// RAII span: observes the elapsed wall time (microseconds) into `hist` on
/// destruction, unless `cancel()`ed first.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) noexcept
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->observe(elapsed_us());
  }

  [[nodiscard]] double elapsed_us() const noexcept {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void cancel() noexcept { hist_ = nullptr; }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Read-only copy of a registry's state, taken under the registration lock
/// but reading instrument values with relaxed loads (monotone counters may
/// be mid-increment; each value is individually exact).
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::string help;
    Labels labels;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::string help;
    Labels labels;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::string help;
    Labels labels;
    std::vector<double> upper_bounds;       ///< finite bounds; +Inf implicit
    std::vector<std::uint64_t> bucket_counts;  ///< size upper_bounds + 1
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Thread-safe metric registry.  Families are identified by name; instruments
/// within a family by their label set.  Registering the same (name, labels)
/// twice returns the same instrument; reusing a name with a different
/// instrument kind throws std::invalid_argument.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds, const Labels& labels = {});

  /// Current value of a counter, or 0 if the (name, labels) pair was never
  /// registered.  Benches use before/after deltas of this to cross-check the
  /// legacy accessors.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            const Labels& labels = {}) const;

  [[nodiscard]] Snapshot snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<Instrument> instruments;  // registration order
  };

  Family& family(const std::string& name, const std::string& help, Kind kind);
  static Instrument* find(std::vector<Instrument>& instruments, const Labels& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;  // registration order
  /// Name lookup only — O(1) hash instead of the former ordered map's tree
  /// walk per registration/lookup.  Export order is defined by `families_`
  /// (registration order), never by this table's iteration order, so the
  /// switch cannot reorder exporter output (pinned by the exporter tests).
  std::unordered_map<std::string, Family*> by_name_;
};

/// The process-wide default registry; the serving stack's instruments all
/// live here unless a caller supplies its own registry.
Registry& global_registry();

}  // namespace lcaknap::metrics

#endif  // LCAKNAP_METRICS_METRICS_H
