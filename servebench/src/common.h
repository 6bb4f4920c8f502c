#ifndef SERVEBENCH_COMMON_H
#define SERVEBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/lca_kp.h"
#include "metrics/metrics.h"
#include "serve/engine.h"

/// \file common.h
/// Shared vocabulary of the serving benchmark: the default serving
/// configuration, command-line options, per-request samples, the result of
/// one measured phase, and readers for the registry the layers export.

namespace servebench {

using Clock = std::chrono::steady_clock;
using namespace lcaknap;

/// Warm-state tape of `lcaknap_cli serve --listen` (`--tape` default).
inline constexpr std::uint64_t kTapeSeed = 7;
/// Per-tenant admission quota (`--tenant-inflight` default).
inline constexpr std::size_t kTenantInflight = 1024;
/// Warm states held by the StateStore (`--store-capacity` default).
inline constexpr std::size_t kStoreCapacity = 8;
/// Traffic sent before the measured window opens (caches fill, threads
/// settle); answers sent then are checked but not timed.
inline constexpr double kWarmupTrafficSeconds = 1.0;
/// Independent set-ups per end-to-end run; `setup_s` is their median.
inline constexpr int kSetupRepeats = 6;

/// How many of a run's `setups` come before its traffic; the rest follow
/// the checks.  Set-up time is CPU-bound and the host switches between a
/// fast and a slow state (about 1.6x apart) every few seconds.  With half
/// the set-ups at each end of a run, the median of an even count averages
/// the two ends when they fall in different states.
[[nodiscard]] constexpr int setups_before(int setups) {
  return (setups + 1) / 2;
}

/// The algorithm configuration `serve --listen` builds with no flags.
[[nodiscard]] core::LcaKpConfig default_lca_config();
/// The engine configuration `serve --listen` builds with no flags: eps 0.1,
/// 4 workers, queue 8192, batch 64, linger 200 us, cache 65,536 x 8 shards,
/// one warm-up thread.
[[nodiscard]] serve::EngineConfig default_engine_config();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for certificate logs (inside the checkout).
  std::string work_dir = ".";
};

/// One request as the load generator saw it.
struct Sample {
  std::uint32_t item = 0;
  std::uint32_t epoch = 0;
  float latency_us = 0.0f;
  /// Send instant (scheduled instant, open loop), seconds since the phase's
  /// traffic started.
  float sent_s = 0.0f;
  /// Open loop only: actual send instant minus scheduled instant.
  float lateness_us = 0.0f;
  std::uint8_t status = 0;  ///< `net::WireStatus` numbering; 0 = ok
  bool answer = false;
  bool measured = false;    ///< sent inside the measured window
  bool wrong = false;       ///< ok, but differs from the reference answer
};

/// Everything one measured phase produced.
struct PhaseResult {
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;   ///< requests sent in the measured window
  std::uint64_t correct_ok = 0;  ///< of those: ok and verified correct
  double throughput_qps = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_mean_us = 0.0;
  std::uint64_t latency_samples = 0;
  std::size_t latency_windows = 0;
  /// Answers checked against the reference, over the whole phase.
  std::uint64_t answers_checked = 0;
  std::uint64_t wrong_answers = 0;
  /// Conservation breaches and failed checks, one line each.
  std::vector<std::string> breaches;
  /// Human-readable observations printed with the result.
  std::vector<std::string> notes;
  /// Per-layer metrics by name (units live in main.cpp's catalogue); filled
  /// only by a traced phase.
  std::map<std::string, double> layers;

  void check(bool ok, const std::string& what) {
    if (!ok) breaches.push_back(what);
  }
};

/// Sub-windows of the measured window that latency percentiles are read in:
/// at least 50 ms and at least 2,000 answers, so each p99 has 20 answers
/// beyond it.
inline constexpr double kMinLatencyWindowSeconds = 0.05;
inline constexpr double kMinLatencyWindowSamples = 2'000.0;
/// Rank across sub-windows that each end-to-end figure is read at: the first
/// quartile of the latencies and the third of the throughputs, i.e. the
/// quiet quarter of the measured window.
inline constexpr double kQuietQuantile = 0.25;

/// Fills the end-to-end fields from the samples; ok answers must already be
/// verified.  The measured window starts `window_start_s` after the phase's
/// traffic started and lasts `window_s`.  It is cut into equal sub-windows;
/// each yields its own throughput (correct ok answers completed in it, per
/// second) and its own p50 and p99 (over the correct ok answers sent in it),
/// and each reported figure is the median across sub-windows, so a noisy
/// stretch covering less than half the window cannot move it.  Every other
/// attempt counts only against `ok_share`.
void summarize(const std::vector<Sample>& samples, double window_start_s,
               double window_s, PhaseResult& result);

/// Checks the engine's conservation law once drained: submitted == ok +
/// overloaded + deadline + degraded + errors, and no paranoia violation.
void check_engine_conservation(const serve::EngineStats& stats,
                               PhaseResult& result);

/// The per-layer metrics read from `EngineStats` (totals over the phase),
/// and Theorem 4.1's bound: at most one oracle read per cache miss or
/// paranoia re-check, never one on a hit.
void add_engine_layers(const serve::EngineStats& stats,
                       std::uint64_t oracle_reads, PhaseResult& result);

struct HistogramView;
/// The engine's latency split from its registry histograms over the measured
/// window: request latency (`serve_request_latency_us`), evaluation
/// (`serve_batch_eval_us`), and the wait before evaluation as the
/// difference of their means.
void add_engine_histogram_layers(const HistogramView& latency,
                                 const HistogramView& eval,
                                 PhaseResult& result);

/// A histogram family's bucket counts, summed over its label sets.
struct HistogramView {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;  ///< size upper_bounds + 1 (+Inf last)
  double sum = 0.0;

  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] double mean() const;
  /// Interpolated quantile, the same rule as `metrics::Histogram`.
  [[nodiscard]] double quantile(double p) const;
  /// This view minus an earlier view of the same family.
  [[nodiscard]] HistogramView since(const HistogramView& earlier) const;
};

[[nodiscard]] HistogramView histogram_of(const metrics::Registry& registry,
                                         const std::string& name);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to);

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H
