#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>

#include "util/stats.h"

namespace servebench {

core::LcaKpConfig default_lca_config() {
  core::LcaKpConfig config;
  config.eps = 0.1;
  config.seed = 0xC0DE;
  return config;
}

serve::EngineConfig default_engine_config() {
  serve::EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 8'192;
  config.batcher.max_batch_size = 64;
  config.batcher.max_linger = std::chrono::microseconds(200);
  config.cache.capacity = 1 << 16;
  config.cache.shards = 8;
  config.warmup_threads = 1;
  config.warmup_tape_seed = kTapeSeed;
  return config;
}

void summarize(const std::vector<Sample>& samples, double window_start_s,
               double window_s, PhaseResult& result) {
  std::size_t answered = 0;
  for (const auto& s : samples) {
    if (!s.measured) continue;
    ++result.attempted;
    if (s.status == 0 && !s.wrong) ++answered;
  }
  result.correct_ok = answered;
  result.latency_samples = answered;
  if (answered == 0 || window_s <= 0) return;

  const double rate = static_cast<double>(answered) / window_s;
  const double wanted = std::max(kMinLatencyWindowSeconds,
                                 kMinLatencyWindowSamples / rate);
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(window_s / wanted));
  const double width = window_s / static_cast<double>(windows);
  std::vector<std::vector<double>> latencies(windows);
  // Completions per sub-window: count and first/last instant, so the rate
  // (count - 1) / (last - first) is continuous rather than a whole count.
  struct Completions {
    double count = 0.0;
    double first = 0.0;
    double last = 0.0;
  };
  std::vector<Completions> completions(windows);
  double sum = 0.0;
  for (const auto& s : samples) {
    if (s.status != 0 || s.wrong) continue;
    const double done_s = static_cast<double>(s.sent_s) +
                          static_cast<double>(s.latency_us) / 1e6;
    const double done_at = (done_s - window_start_s) / width;
    if (done_at >= 0 && done_at < static_cast<double>(windows)) {
      auto& c = completions[static_cast<std::size_t>(done_at)];
      c.first = c.count > 0 ? std::min(c.first, done_s) : done_s;
      c.last = c.count > 0 ? std::max(c.last, done_s) : done_s;
      c.count += 1.0;
    }
    if (!s.measured) continue;
    const double sent_at = (static_cast<double>(s.sent_s) - window_start_s) / width;
    latencies[static_cast<std::size_t>(std::clamp(
                  sent_at, 0.0, static_cast<double>(windows - 1)))]
        .push_back(s.latency_us);
    sum += s.latency_us;
  }
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const auto& window : latencies) {
    if (window.empty()) continue;
    const util::EmpiricalCdf cdf(window);
    p50s.push_back(cdf.quantile(0.50));
    p99s.push_back(cdf.quantile(0.99));
  }
  std::vector<double> rates;
  for (const auto& c : completions) {
    if (c.count >= 2 && c.last > c.first) {
      rates.push_back((c.count - 1.0) / (c.last - c.first));
    }
  }
  result.latency_windows = windows;
  result.throughput_qps =
      util::EmpiricalCdf(rates).quantile(1.0 - kQuietQuantile);
  result.latency_p50_us = util::EmpiricalCdf(p50s).quantile(kQuietQuantile);
  const util::EmpiricalCdf p99_cdf(p99s);
  result.latency_p99_us = p99_cdf.quantile(kQuietQuantile);
  result.notes.push_back(
      "sub-window p99 quartiles " + std::to_string(p99_cdf.quantile(0.25)) +
      " / " + std::to_string(p99_cdf.quantile(0.50)) + " / " +
      std::to_string(p99_cdf.quantile(0.75)) + " us");
  result.latency_mean_us = sum / static_cast<double>(answered);
}

namespace {

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return denominator > 0 ? static_cast<double>(numerator) /
                               static_cast<double>(denominator)
                         : 0.0;
}

}  // namespace

void check_engine_conservation(const serve::EngineStats& stats,
                               PhaseResult& result) {
  const std::uint64_t finished = stats.ok + stats.overloaded +
                                 stats.deadline_exceeded + stats.degraded +
                                 stats.errors;
  result.check(stats.submitted == finished,
               "engine conservation: submitted " +
                   std::to_string(stats.submitted) + " != finished " +
                   std::to_string(finished));
  result.check(stats.paranoia_violations == 0,
               "cache paranoia violations: " +
                   std::to_string(stats.paranoia_violations));
}

void add_engine_layers(const serve::EngineStats& stats,
                       std::uint64_t oracle_reads, PhaseResult& result) {
  auto& layers = result.layers;
  const std::uint64_t lookups = stats.cache_hits + stats.cache_misses;
  layers["serve.batcher.batches"] = static_cast<double>(stats.batches);
  layers["serve.batcher.mean_batch_size"] =
      ratio(stats.batched_requests, stats.batches);
  layers["serve.cache.lookups"] = static_cast<double>(lookups);
  layers["serve.cache.hit_ratio"] = ratio(stats.cache_hits, lookups);
  layers["serve.cache.misses"] = static_cast<double>(stats.cache_misses);
  layers["serve.cache.paranoia_checks"] =
      static_cast<double>(stats.paranoia_checks);
  layers["serve.cache.evictions"] = static_cast<double>(stats.cache_evictions);
  layers["serve.cache.invalidations"] =
      static_cast<double>(stats.cache_invalidations);
  layers["serve.queue.overloaded"] = static_cast<double>(stats.overloaded);
  layers["cert.records"] = static_cast<double>(stats.cert_records);
  layers["cert.segments"] = static_cast<double>(stats.cert_segments);
  layers["cert.bytes_per_record"] = ratio(stats.cert_bytes, stats.cert_records);
  layers["oracle.reads"] = static_cast<double>(oracle_reads);
  layers["oracle.answers"] = static_cast<double>(stats.ok);
  layers["oracle.reads_per_answer"] = ratio(oracle_reads, stats.ok);
  const std::uint64_t bound = stats.cache_misses + stats.paranoia_checks;
  result.check(oracle_reads <= bound,
               "Theorem 4.1 read bound: " + std::to_string(oracle_reads) +
                   " oracle reads > " + std::to_string(stats.cache_misses) +
                   " cache misses + " + std::to_string(stats.paranoia_checks) +
                   " paranoia checks");
}

void add_engine_histogram_layers(const HistogramView& latency,
                                 const HistogramView& eval,
                                 PhaseResult& result) {
  auto& layers = result.layers;
  layers["latency.mean_us"] = result.latency_mean_us;
  layers["serve.engine.latency_us.p50"] = latency.quantile(0.50);
  layers["serve.engine.latency_us.p99"] = latency.quantile(0.99);
  layers["serve.engine.latency_us.mean"] = latency.mean();
  layers["serve.engine.eval_us.p50"] = eval.quantile(0.50);
  layers["serve.engine.eval_us.mean"] = eval.mean();
  layers["serve.engine.wait_us.mean"] = latency.mean() - eval.mean();
}

std::uint64_t HistogramView::total() const {
  std::uint64_t sum = 0;
  for (const auto c : counts) sum += c;
  return sum;
}

double HistogramView::mean() const {
  const std::uint64_t n = total();
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double HistogramView::quantile(double p) const {
  const std::uint64_t n = total();
  if (n == 0 || upper_bounds.empty()) return 0.0;
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= upper_bounds.size()) return upper_bounds.back();
    const double lower =
        i == 0 ? std::min(0.0, upper_bounds[0]) : upper_bounds[i - 1];
    const double within =
        (rank - static_cast<double>(before)) / static_cast<double>(counts[i]);
    return lower + (upper_bounds[i] - lower) * std::clamp(within, 0.0, 1.0);
  }
  return upper_bounds.back();
}

HistogramView HistogramView::since(const HistogramView& earlier) const {
  HistogramView delta = *this;
  if (earlier.counts.size() != counts.size()) return delta;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    delta.counts[i] -= std::min(delta.counts[i], earlier.counts[i]);
  }
  delta.sum -= earlier.sum;
  return delta;
}

HistogramView histogram_of(const metrics::Registry& registry,
                           const std::string& name) {
  HistogramView view;
  for (const auto& h : registry.snapshot().histograms) {
    if (h.name != name) continue;
    if (view.counts.empty()) {
      view.upper_bounds = h.upper_bounds;
      view.counts.assign(h.bucket_counts.size(), 0);
    }
    if (h.bucket_counts.size() != view.counts.size()) {
      throw std::logic_error("histogram " + name + ": label sets disagree");
    }
    for (std::size_t i = 0; i < view.counts.size(); ++i) {
      view.counts[i] += h.bucket_counts[i];
    }
    view.sum += h.sum;
  }
  return view;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace servebench
